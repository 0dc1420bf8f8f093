package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.graphs.LocalGraph

class IcSpec extends AnyFunSuite {

  private def sim(g: LocalGraph, seeds: Seq[Int], seed: Long = 1): (Int, Costs) = {
    val costs = new Costs
    val n = Ic.simulate(g.outEdges, seeds.toArray, seeds.size, new SplittableRandom(seed),
                        new SimScratch(g.n), costs)
    (n, costs)
  }

  test("all probabilities 1: activation equals reachability") {
    val g = LocalGraph.fromWeightedEdges(4, Seq((0, 1, 1.0), (1, 2, 1.0)))
    assert(sim(g, Seq(0))._1 == 3)
    assert(sim(g, Seq(1))._1 == 2)
    assert(sim(g, Seq(3))._1 == 1)
  }

  test("all probabilities ~0: only seeds activate") {
    val g = LocalGraph.fromWeightedEdges(4,
      Seq((0, 1, 1e-15), (1, 2, 1e-15), (2, 3, 1e-15)))
    for (s <- 0 until 4) assert(sim(g, Seq(s))._1 == 1)
    assert(sim(g, Seq(0, 2))._1 == 2)
  }

  test("duplicate seeds are activated once") {
    val g = LocalGraph.fromWeightedEdges(2, Seq((0, 1, 1.0)))
    assert(sim(g, Seq(0, 0))._1 == 2)
  }

  test("vertex cost equals the number of activated vertices") {
    val g = LocalGraph.fromWeightedEdges(4, Seq((0, 1, 1.0), (1, 2, 1.0)))
    val (n, costs) = sim(g, Seq(0))
    assert(n == 3)
    assert(costs.vertex == 3)
  }

  test("edge cost equals the sum of out-degrees of activated vertices") {
    val g = LocalGraph.fromWeightedEdges(4,
      Seq((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1e-15)))
    val (_, costs) = sim(g, Seq(0))
    // activated = {0,1,2}: outdeg 2 + 1 + 1 = 4 edges examined.
    assert(costs.edge == 4)
  }

  test("costs accumulate across repeated simulations") {
    val g = LocalGraph.fromWeightedEdges(2, Seq((0, 1, 1.0)))
    val costs = new Costs
    val scratch = new SimScratch(g.n)
    val rng = new SplittableRandom(3)
    (1 to 10).foreach(_ => Ic.simulate(g.outEdges, Array(0), 1, rng, scratch, costs))
    assert(costs.vertex == 20) // 2 activations per run
    assert(costs.edge == 10)   // 1 out-edge of vertex 0 per run
  }

  test("empirical mean matches exact influence on a tiny graph") {
    val g = LocalGraph.fromWeightedEdges(4,
      Seq((0, 1, 0.4), (1, 2, 0.7), (0, 3, 0.2), (3, 2, 0.9)))
    val exact = ExactInfluence.influence(g, Seq(0))
    val rng = new SplittableRandom(12345)
    val scratch = new SimScratch(g.n)
    val costs = new Costs
    val runs = 60000
    var total = 0L
    (1 to runs).foreach(_ => total += Ic.simulate(g.outEdges, Array(0), 1, rng, scratch, costs))
    val mean = total.toDouble / runs
    // Spread ≤ 4, so a 6e4-run mean is within ~0.03 of exact w.h.p.
    assert(math.abs(mean - exact) < 0.05, s"mean=$mean exact=$exact")
  }

  test("simulation is deterministic for a fixed PRNG seed") {
    val g = LocalGraph.fromWeightedEdges(5,
      Seq((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5)))
    val a = sim(g, Seq(0), seed = 99)
    val b = sim(g, Seq(0), seed = 99)
    assert(a._1 == b._1)
    assert(a._2.vertex == b._2.vertex && a._2.edge == b._2.edge)
  }

  test("SimScratch reset gives a clean visited state in O(1)") {
    val s = new SimScratch(3)
    def visited(v: Int) = s.mark(v) == s.stamp
    s.reset(); s.mark(0) = s.stamp; s.mark(2) = s.stamp
    assert(visited(0) && !visited(1) && visited(2))
    s.reset()
    assert(!visited(0) && !visited(1) && !visited(2))
  }

  test("SimScratch reset past the last stamp clears the marks and restarts at 1") {
    val s = new SimScratch(3)
    s.reset(); s.mark(1) = s.stamp
    s.stamp = -1
    s.mark(2) = s.stamp
    s.reset()
    assert(s.stamp == 1)
    assert((0 until 3).forall(v => s.mark(v) != s.stamp))
  }

  test("disconnected seed activates only its component") {
    val g = LocalGraph.fromWeightedEdges(6,
      Seq((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)))
    assert(sim(g, Seq(3))._1 == 3)
    assert(sim(g, Seq(0, 3))._1 == 6)
  }
}
