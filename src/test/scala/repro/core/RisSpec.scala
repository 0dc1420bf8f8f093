package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.graphs.{GraphGen, LocalGraph}

class RisSpec extends AnyFunSuite {

  private val tiny = LocalGraph.fromWeightedEdges(4,
    Seq((0, 1, 0.4), (1, 2, 0.7), (0, 3, 0.2), (3, 2, 0.9)))

  test("estimate is n · (coverage fraction)") {
    // Deterministic graph: RR set of target z is its ancestor set.
    val g = LocalGraph.fromWeightedEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0)))
    val est = new Ris(g, theta = 9000)
    val rng = new SplittableRandom(1)
    est.build(rng)
    // Vertex 0 is in every RR set: estimate must be exactly n.
    assert(est.estimate(0, rng) == 3.0)
    // Vertex 2 only appears when the target is 2 (prob 1/3): ≈ 1.
    assert(math.abs(est.estimate(2, rng) - 1.0) < 0.15)
  }

  test("estimate is unbiased against exact influence") {
    val est = new Ris(tiny, theta = 150000)
    val rng = new SplittableRandom(2)
    est.build(rng)
    (0 until tiny.n).foreach { v =>
      val exact = ExactInfluence.influence(tiny, Seq(v))
      val got = est.estimate(v, rng)
      assert(math.abs(got - exact) < 0.08, s"v=$v got=$got exact=$exact")
    }
  }

  test("update removes covered RR sets: covered vertex estimates drop") {
    val g = LocalGraph.fromWeightedEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0)))
    val est = new Ris(g, theta = 3000)
    val rng = new SplittableRandom(3)
    est.build(rng)
    est.update(0, rng) // vertex 0 covers every RR set
    (0 until 3).foreach(v => assert(est.estimate(v, rng) == 0.0))
  }

  test("update is idempotent for repeated seeds") {
    val est = new Ris(tiny, theta = 2000)
    val rng = new SplittableRandom(4)
    est.build(rng)
    est.update(0, rng)
    val after = (0 until 4).map(v => est.estimate(v, rng))
    est.update(0, rng)
    assert((0 until 4).map(v => est.estimate(v, rng)) == after)
  }

  test("marginal estimates stay non-negative after updates") {
    val g = GraphGen.karate().withProbs((_, _) => 0.2)
    val est = new Ris(g, theta = 5000)
    val rng = new SplittableRandom(5)
    est.build(rng)
    est.update(0, rng); est.update(33, rng)
    (0 until g.n).foreach(v => assert(est.estimate(v, rng) >= 0.0))
  }

  test("sample size equals the total number of stored RR-set vertices") {
    val g = LocalGraph.fromWeightedEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0)))
    // Ancestor sets: target 0 -> {0}, 1 -> {0,1}, 2 -> {0,1,2}.
    val theta = 30000
    val est = new Ris(g, theta)
    est.build(new SplittableRandom(6))
    val expected = theta * (1 + 2 + 3) / 3.0 // E|R| = 2
    assert(math.abs(est.sampleSize - expected) / expected < 0.05)
  }

  test("traversal cost comes from generation only") {
    val est = new Ris(tiny, theta = 100)
    val rng = new SplittableRandom(7)
    est.build(rng)
    val v0 = est.costs.vertex; val e0 = est.costs.edge
    assert(v0 > 0)
    est.estimate(0, rng); est.update(0, rng); est.estimate(1, rng)
    assert(est.costs.vertex == v0 && est.costs.edge == e0)
  }

  test("greedy with converged RIS matches exact greedy") {
    val est = new Ris(tiny, theta = 200000)
    val r = Greedy.run(tiny.n, 1, est, new SplittableRandom(8))
    val (exactSeeds, _) = ExactInfluence.greedy(tiny, 1)
    assert(r.seeds.toSeq == exactSeeds)
  }

  test("greedy k=2 on a two-cluster graph selects one vertex per cluster") {
    val g = LocalGraph.fromWeightedEdges(6,
      Seq((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)))
    val est = new Ris(g, theta = 20000)
    val r = Greedy.run(g.n, 2, est, new SplittableRandom(9))
    assert(r.seeds.toSet == Set(0, 3))
  }

  test("RIS over two pages matches greedy max coverage of one generate(θ) on the same stream") {
    val g = GraphGen.karate().withProbs((_, _) => 0.1)
    val theta = RRCollection.PageSize + 7
    val k = 4
    val ris = new Ris(g, theta)
    val r = Greedy.run(g.n, k, ris, new SplittableRandom(10))
    // Reference: the θ sets in one generate call, then Greedy's shuffle and last-max rule.
    val rng = new SplittableRandom(10)
    val costs = new Costs
    val c = RRCollection.generate(g.inEdges, theta, rng, costs)
    val rr = (0 until c.size).map(i => c.members.slice(c.offsets(i), c.offsets(i + 1)).toSet)
    val order = Array.tabulate(g.n)(identity)
    Greedy.shuffle(order, rng)
    val seeds = collection.mutable.ArrayBuffer.empty[Int]
    val ests = collection.mutable.ArrayBuffer.empty[Double]
    var uncovered = rr
    for (_ <- 1 to k) {
      val est = (0 until g.n).map(u => g.n.toDouble * uncovered.count(_(u)) / theta)
      val v = order.filterNot(seeds.contains).foldLeft(-1) { (best, u) =>
        if (best < 0 || est(u) >= est(best)) u else best
      }
      seeds += v
      ests += est(v)
      uncovered = uncovered.filterNot(_(v))
    }
    assert(r.seeds.toSeq == seeds)
    assert(r.estimates.toSeq == ests)
    assert((r.vertexCost, r.edgeCost, r.sampleSize) == (costs.vertex, costs.edge, c.storedVertices))
    // Seeding every vertex covers every set of both pages.
    (0 until g.n).foreach(ris.update(_, rng))
    assert((0 until g.n).forall(ris.estimate(_, rng) == 0.0))
  }

  test("theta < 1 is rejected") {
    assertThrows[IllegalArgumentException](new Ris(tiny, 0))
  }
}
