package repro.core

import java.util.SplittableRandom
import repro.graphs.LocalGraph

/** Mutable traversal-cost accumulator, the paper's implementation-independent
  * efficiency metric (§3.2): `vertex` counts vertices examined (possibly
  * repeatedly), `edge` counts edges examined.
  */
final class Costs extends Serializable {
  var vertex: Long = 0L
  var edge: Long = 0L

  def +=(other: Costs): Unit = { vertex += other.vertex; edge += other.edge }
  override def toString: String = s"Costs(vertex=$vertex, edge=$edge)"
}

/** Reusable scratch space for repeated BFS/diffusion runs on one graph.
  * The `mark`/`stamp` trick avoids clearing the visited array between runs.
  */
final class SimScratch(n: Int) {
  val mark: Array[Int] = new Array[Int](n)   // mark(v) == stamp  ⇔  v visited
  var stamp: Int = 0
  val queue: Array[Int] = new Array[Int](n)

  /** Starts a fresh run; all vertices become unvisited in O(1). */
  def reset(): Unit = { stamp += 1 }

  def visited(v: Int): Boolean = mark(v) == stamp
  def visit(v: Int): Unit = { mark(v) = stamp }
}

/** Forward Independent Cascade simulation (paper §2.2), the kernel of the
  * Oneshot estimator. Follows the paper's PRNG discipline (§4.1): one
  * uniform draw per *examined* edge, the edge is live iff x < p(e).
  */
object Ic {

  /** Simulates one IC diffusion from the first `seedCount` vertices of
    * `seeds` and returns the number of activated vertices |A≤n|. Every
    * activated vertex adds 1 to the vertex traversal cost; every out-edge
    * of an activated vertex adds 1 to the edge traversal cost (examined
    * whether or not the endpoint is active, exactly as a naive
    * implementation scans adjacency lists).
    */
  def simulate(g: LocalGraph, seeds: Array[Int], seedCount: Int,
               rng: SplittableRandom, scratch: SimScratch, costs: Costs): Int = {
    scratch.reset()
    var head = 0
    var tail = 0
    var i = 0
    while (i < seedCount) {
      val s = seeds(i)
      if (!scratch.visited(s)) {
        scratch.visit(s)
        scratch.queue(tail) = s; tail += 1
      }
      i += 1
    }
    while (head < tail) {
      val u = scratch.queue(head); head += 1
      costs.vertex += 1
      var e = g.outOffsets(u)
      val end = g.outOffsets(u + 1)
      while (e < end) {
        costs.edge += 1
        val w = g.outDst(e)
        val live = rng.nextDouble() < g.outProb(e)
        if (live && !scratch.visited(w)) {
          scratch.visit(w)
          scratch.queue(tail) = w; tail += 1
        }
        e += 1
      }
    }
    tail
  }
}
