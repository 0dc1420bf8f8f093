package repro.core

import java.util.SplittableRandom
import repro.graphs.LiveEdges

/** Mutable traversal-cost accumulator, the paper's implementation-independent
  * efficiency metric (§3.2): `vertex` counts vertices examined (possibly
  * repeatedly), `edge` counts edges examined.
  */
final class Costs {
  var vertex: Long = 0L
  var edge: Long = 0L

  override def toString: String = s"Costs(vertex=$vertex, edge=$edge)"
}

/** Reusable scratch space for repeated BFS/diffusion runs on one graph.
  * The `mark`/`stamp` trick avoids clearing the visited array between runs.
  */
final class SimScratch(n: Int) {
  val mark: Array[Int] = new Array[Int](n)   // mark(v) == stamp  ⇔  v visited
  var stamp: Int = 0
  val queue: Array[Int] = new Array[Int](n)

  /** Starts a fresh run; all vertices become unvisited, in O(1) except
    * once every 2³² runs: when `stamp` wraps to 0, the value of a
    * never-visited `mark`, the marks are cleared and it restarts at 1.
    */
  def reset(): Unit = {
    stamp += 1
    if (stamp == 0) { java.util.Arrays.fill(mark, 0); stamp = 1 }
  }
}

/** The live-edge cascade: an Independent Cascade diffusion (paper §2.2)
  * over one direction of the graph's edges. It follows the paper's PRNG
  * discipline (§4.1): one uniform draw per *examined* edge, and the edge is
  * live iff x < p(e). The draws are `rng`'s own, run in locals by
  * [[SplitMix]] and tested against the thresholds of [[LiveEdges]]; `rng`
  * resumes after them.
  *
  * Over `LocalGraph.outEdges` it is the forward cascade, the kernel of the
  * Oneshot estimator. Over `LocalGraph.inEdges`, from one target z, it is
  * the forward cascade on the transposed graph 𝒢ᵀ, whose activated set is
  * the RR set of z (Definition 3.1); see [[RRCollection.generate]].
  */
object Ic {

  /** Simulates one IC diffusion over `edges` from the first `seedCount`
    * vertices of `seeds`, and returns the number of activated vertices
    * |A≤n|. They are left in `scratch.queue(0 until |A≤n|)` in BFS order,
    * repeated seeds counted once. Every activated vertex adds 1 to the
    * vertex traversal cost. Every edge of an activated vertex adds 1 to the
    * edge traversal cost, examined whether or not the endpoint is active,
    * exactly as a naive implementation scans adjacency lists.
    */
  def simulate(edges: LiveEdges, seeds: Array[Int], seedCount: Int,
               rng: SplittableRandom, scratch: SimScratch, costs: Costs): Int = {
    scratch.reset()
    val mark = scratch.mark
    val stamp = scratch.stamp
    val queue = scratch.queue
    val offsets = edges.offsets
    val adj = edges.adj
    val threshold = edges.threshold
    val gamma = SplitMix.gamma(rng)
    var state = SplitMix.seed(rng)
    var head = 0
    var tail = 0
    var i = 0
    while (i < seedCount) {
      val s = seeds(i)
      if (mark(s) != stamp) {
        mark(s) = stamp
        queue(tail) = s; tail += 1
      }
      i += 1
    }
    var examined = 0L
    while (head < tail) {
      val u = queue(head); head += 1
      var e = offsets(u)
      val end = offsets(u + 1)
      examined += end - e
      while (e < end) {
        state += gamma
        if ((SplitMix.mix64(state) >>> 11) < threshold(e)) {
          val w = adj(e)
          if (mark(w) != stamp) {
            mark(w) = stamp
            queue(tail) = w; tail += 1
          }
        }
        e += 1
      }
    }
    SplitMix.setSeed(rng, state)
    costs.vertex += tail
    costs.edge += examined
    tail
  }
}
