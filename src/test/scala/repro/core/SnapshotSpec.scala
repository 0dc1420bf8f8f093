package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.graphs.{GraphGen, LocalGraph, ProbModel}

class SnapshotSpec extends AnyFunSuite {

  private val tiny = LocalGraph.fromWeightedEdges(4,
    Seq((0, 1, 0.4), (1, 2, 0.7), (0, 3, 0.2), (3, 2, 0.9)))

  test("with probability 1, estimate equals deterministic reachability") {
    val g = LocalGraph.fromWeightedEdges(4, Seq((0, 1, 1.0), (1, 2, 1.0)))
    val est = new Snapshot(g, tau = 4)
    val rng = new SplittableRandom(1)
    est.build(rng)
    assert(est.estimate(0, rng) == 3.0)
    assert(est.estimate(1, rng) == 2.0)
    assert(est.estimate(3, rng) == 1.0)
  }

  test("with probability ~0, every estimate is 1 (just the vertex itself)") {
    val g = tiny.withProbs((_, _) => 1e-15)
    val est = new Snapshot(g, tau = 8)
    val rng = new SplittableRandom(2)
    est.build(rng)
    (0 until 4).foreach(v => assert(est.estimate(v, rng) == 1.0))
  }

  test("estimate is unbiased across builds") {
    val exact = ExactInfluence.influence(tiny, Seq(0))
    val runs = 20000
    val rng = new SplittableRandom(3)
    var total = 0.0
    (1 to runs).foreach { _ =>
      val est = new Snapshot(tiny, tau = 1)
      est.build(rng)
      total += est.estimate(0, rng)
    }
    val mean = total / runs
    assert(math.abs(mean - exact) < 0.06, s"mean=$mean exact=$exact")
  }

  test("estimates are frozen: repeated estimates agree (unlike Oneshot)") {
    val est = new Snapshot(tiny, tau = 16)
    val rng = new SplittableRandom(4)
    est.build(rng)
    val first = est.estimate(0, rng)
    (1 to 10).foreach(_ => assert(est.estimate(0, rng) == first))
  }

  test("estimator is monotone and submodular for fixed snapshots") {
    // Build two independent estimators on the same snapshots via a fixed
    // seed and check f(S+v)-f(S) >= f(T+v)-f(T) for S ⊆ T using the
    // deletion API: marginal(v | set) after updating the set's members.
    val g = GraphGen.karate().withProbs((_, _) => 0.2)
    def marginal(prior: Seq[Int], v: Int): Double = {
      val est = new Snapshot(g, tau = 10)
      val rng = new SplittableRandom(99) // same snapshots every time
      est.build(rng)
      prior.foreach(u => est.update(u, rng))
      est.estimate(v, rng)
    }
    val s = Seq(0)
    val t = Seq(0, 33, 5)
    for (v <- Seq(1, 2, 11, 20)) {
      val gS = marginal(s, v)
      val gT = marginal(t, v)
      assert(gS >= gT - 1e-9, s"v=$v: marginal|S=$gS < marginal|T=$gT")
      assert(gS >= 0 && gT >= 0) // monotonicity of the estimator
    }
  }

  test("update deletes reached vertices: marginal of a covered vertex is 0") {
    val g = LocalGraph.fromWeightedEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0)))
    val est = new Snapshot(g, tau = 3)
    val rng = new SplittableRandom(5)
    est.build(rng)
    est.update(0, rng) // reaches everything
    assert(est.estimate(1, rng) == 0.0)
    assert(est.estimate(2, rng) == 0.0)
  }

  test("deletion preserves marginal estimates (the §3.4.3 identity)") {
    // r_G(S+v) - r_G(S) must equal r_H(v) after deleting reach(S).
    val g = GraphGen.karate().withProbs((_, _) => 0.15)
    val seedV = 7
    // estimator A: update(seedV) then estimate(v) — uses deletion.
    val estA = new Snapshot(g, tau = 20)
    estA.build(new SplittableRandom(77))
    // estimator B: same snapshots; compute r(S+v) - r(S) via two fresh
    // estimators without updates.
    val estB1 = new Snapshot(g, tau = 20)
    estB1.build(new SplittableRandom(77))
    val rB = new SplittableRandom(0)
    val rA = new SplittableRandom(0)
    val baseline = estB1.estimate(seedV, rB)
    estA.update(seedV, rA)
    for (v <- Seq(0, 12, 25, 33)) {
      // r(S+v) on fresh snapshots: estimate from a 2-seed union by
      // updating seedV on another fresh estimator... equivalently, use
      // the A-side marginal + baseline and compare against the union
      // computed by one more fresh estimator with update-less BFS union.
      val estU = new Snapshot(g, tau = 20)
      estU.build(new SplittableRandom(77))
      val rU = new SplittableRandom(0)
      estU.update(seedV, rU)
      val marginalViaFresh = estU.estimate(v, rU)
      val marginalViaA = estA.estimate(v, rA)
      assert(math.abs(marginalViaA - marginalViaFresh) < 1e-9)
      assert(marginalViaA + baseline >= baseline) // union at least baseline
    }
  }

  test("sample size counts stored live edges, ≈ τ·m̃ in expectation") {
    val g = GraphGen.karate().withProbs((_, _) => 0.3)
    val tau = 200
    val est = new Snapshot(g, tau)
    est.build(new SplittableRandom(6))
    val expected = tau * g.mTilde
    assert(math.abs(est.sampleSize - expected) / expected < 0.1,
           s"size=${est.sampleSize} expected≈$expected")
  }

  test("sample size with probability 1 is exactly τ·m") {
    val g = GraphGen.karate() // unit probabilities
    val est = new Snapshot(g, tau = 5)
    est.build(new SplittableRandom(7))
    assert(est.sampleSize == 5L * g.m)
  }

  test("build incurs no traversal cost; estimate does") {
    val g = GraphGen.karate().withProbs((_, _) => 0.2)
    val est = new Snapshot(g, tau = 4)
    val rng = new SplittableRandom(8)
    est.build(rng)
    assert(est.costs.vertex == 0 && est.costs.edge == 0)
    est.estimate(0, rng)
    assert(est.costs.vertex >= 4) // at least the start vertex per snapshot
  }

  test("edge traversal scans only live edges (cost ≤ τ·m per estimate sweep)") {
    val g = GraphGen.karate().withProbs((_, _) => 0.1)
    val tau = 50
    val est = new Snapshot(g, tau)
    val rng = new SplittableRandom(9)
    est.build(rng)
    val before = est.costs.edge
    (0 until g.n).foreach(v => est.estimate(v, rng))
    val scanned = est.costs.edge - before
    // A full sweep cannot scan more edge slots than all live edges times
    // the number of vertices (loose), but must be far below τ·m·n for
    // p=0.1; check against the Oneshot-equivalent bound.
    assert(scanned < tau.toLong * g.m * g.n / 5)
    assert(scanned > 0)
  }

  test("greedy with converged Snapshot matches exact greedy") {
    val est = new Snapshot(tiny, tau = 4000)
    val r = Greedy.run(tiny.n, 1, est, new SplittableRandom(10))
    val (exactSeeds, _) = ExactInfluence.greedy(tiny, 1)
    assert(r.seeds.toSeq == exactSeeds)
  }

  test("tau < 1 is rejected") {
    assertThrows[IllegalArgumentException](new Snapshot(tiny, 0))
  }

  test("a store beyond the Int limit is rejected before anything is allocated") {
    // 2²² snapshots of 1,000 vertices need τ·n + 1 ≈ 4.2·10⁹ offsets; the
    // constructor must refuse them instead of attempting the allocation.
    val g = LocalGraph.fromEdges(1000, Seq.empty)
    val e = intercept[IllegalArgumentException](new Snapshot(g, 1 << 22))
    assert(e.getMessage.contains(s"tau=${1 << 22}, n=1000"), e.getMessage)
    assert(e.getMessage.contains(s"limit ${RRCollection.MaxLength}"), e.getMessage)
  }

  for (model <- ProbModel.all) {
    test(s"estimates are within [0, n] under ${model.name} on Karate") {
      val g = ProbModel.assign(GraphGen.karate(), model)
      val est = new Snapshot(g, tau = 8)
      val rng = new SplittableRandom(11)
      est.build(rng)
      (0 until g.n).foreach { v =>
        val e = est.estimate(v, rng)
        assert(e >= 1.0 && e <= g.n, s"v=$v est=$e")
      }
    }
  }
}
