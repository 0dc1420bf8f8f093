package repro.core

import java.util.SplittableRandom
import repro.graphs.{LiveEdges, LocalGraph}

/** The sampling kernels written directly against `SplittableRandom`: one
  * `nextDouble() < p` per examined edge, p being the edge's effective
  * probability `LocalGraph.prob`, and one cost update per traversal.
  * `SplitMixSpec` checks that the production kernels, which run the stream
  * and the costs in locals, equal these draw for draw.
  */
object ReferenceKernels {

  /** [[Ic.simulate]]: over `g.outEdges` the forward cascade, over
    * `g.inEdges` from one target the RR set of that target.
    */
  def simulate(edges: LiveEdges, seeds: Array[Int], seedCount: Int,
               rng: SplittableRandom, scratch: SimScratch, costs: Costs): Int = {
    scratch.reset()
    var head = 0
    var tail = 0
    var i = 0
    while (i < seedCount) {
      val s = seeds(i)
      if (scratch.mark(s) != scratch.stamp) {
        scratch.mark(s) = scratch.stamp
        scratch.queue(tail) = s; tail += 1
      }
      i += 1
    }
    while (head < tail) {
      val u = scratch.queue(head); head += 1
      costs.vertex += 1
      var e = edges.offsets(u)
      val end = edges.offsets(u + 1)
      while (e < end) {
        costs.edge += 1
        val w = edges.adj(e)
        val live = rng.nextDouble() < LocalGraph.prob(edges.threshold(e))
        if (live && scratch.mark(w) != scratch.stamp) {
          scratch.mark(w) = scratch.stamp
          scratch.queue(tail) = w; tail += 1
        }
        e += 1
      }
    }
    tail
  }

  /** [[Snapshot]]. */
  final class Snapshot(g: LocalGraph, tau: Int) extends InfluenceEstimator {
    private val snapOffsets = new Array[Array[Int]](tau)
    private val snapDst = new Array[Array[Int]](tau)
    private val removed = Array.ofDim[Boolean](tau, g.n)
    private val scratch = new SimScratch(g.n)
    private val costsAcc = new Costs
    private var storedEdges = 0L

    override def build(rng: SplittableRandom): Unit = {
      val live = new Array[Boolean](g.m)
      var i = 0
      while (i < tau) {
        val off = new Array[Int](g.n + 1)
        var e = 0
        while (e < g.m) {
          live(e) = rng.nextDouble() < LocalGraph.prob(g.outEdges.threshold(e)); e += 1
        }
        var u = 0
        while (u < g.n) {
          var j = g.outOffsets(u)
          while (j < g.outOffsets(u + 1)) { if (live(j)) off(u + 1) += 1; j += 1 }
          u += 1
        }
        u = 0
        while (u < g.n) { off(u + 1) += off(u); u += 1 }
        val dst = new Array[Int](off(g.n))
        val pos = off.clone()
        u = 0
        while (u < g.n) {
          var j = g.outOffsets(u)
          while (j < g.outOffsets(u + 1)) {
            if (live(j)) { dst(pos(u)) = g.outDst(j); pos(u) += 1 }
            j += 1
          }
          u += 1
        }
        snapOffsets(i) = off
        snapDst(i) = dst
        storedEdges += dst.length
        i += 1
      }
    }

    private def reach(i: Int, v: Int, delete: Boolean): Int = {
      if (removed(i)(v)) return 0
      val off = snapOffsets(i)
      val dst = snapDst(i)
      val rem = removed(i)
      scratch.reset()
      scratch.mark(v) = scratch.stamp
      scratch.queue(0) = v
      var head = 0
      var tail = 1
      while (head < tail) {
        val u = scratch.queue(head); head += 1
        costsAcc.vertex += 1
        var e = off(u)
        while (e < off(u + 1)) {
          costsAcc.edge += 1
          val w = dst(e)
          if (scratch.mark(w) != scratch.stamp && !rem(w)) {
            scratch.mark(w) = scratch.stamp
            scratch.queue(tail) = w; tail += 1
          }
          e += 1
        }
      }
      if (delete) {
        var q = 0
        while (q < tail) { rem(scratch.queue(q)) = true; q += 1 }
      }
      tail
    }

    override def estimate(v: Int, rng: SplittableRandom): Double = {
      var total = 0L
      var i = 0
      while (i < tau) { total += reach(i, v, delete = false); i += 1 }
      total.toDouble / tau
    }

    override def update(v: Int, rng: SplittableRandom): Unit = {
      var i = 0
      while (i < tau) { reach(i, v, delete = true); i += 1 }
    }

    override def costs: Costs = costsAcc
    override def sampleSize: Long = storedEdges
  }
}
