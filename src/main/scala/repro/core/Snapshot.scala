package repro.core

import java.util.SplittableRandom
import repro.graphs.LocalGraph

/** Naive Snapshot estimator (paper Algorithm 3.3) with the reachable-set
  * deletion speed-up of §3.4.3.
  *
  * `Build` samples τ live-edge random graphs G⁽¹⁾..G⁽ᵗ⁾ up front (one
  * uniform draw per edge per snapshot); they are shared across the whole
  * greedy run, which is why this estimator is monotone and submodular
  * (§3.4.1). `Estimate(v)` BFSes from v on every snapshot over live edges,
  * skipping vertices already reached by the current seed set, so it directly
  * returns the marginal influence r_H⁽ⁱ⁾(v) averaged over snapshots.
  * `Update(v)` deletes the newly reachable vertices from each snapshot.
  *
  * Cost accounting follows the paper: `Build`'s τ·m coin flips are *not*
  * traversal (§3.4.2 — "Build touches each edge only τ times, which does
  * not dominate"); Estimate/Update BFS scans are. The sample size is the
  * number of live edges stored, expected τ·m̃.
  *
  * @param g   influence graph
  * @param tau sample number τ = number of snapshots
  */
final class Snapshot(g: LocalGraph, tau: Int) extends InfluenceEstimator {
  require(tau >= 1, s"tau=$tau must be >= 1")

  // Per-snapshot live-edge CSR; filled by build().
  private val snapOffsets = new Array[Array[Int]](tau)
  private val snapDst = new Array[Array[Int]](tau)
  // removed(i)(v): v was reachable from the current seed set in snapshot i.
  private val removed = Array.ofDim[Boolean](tau, g.n)
  private val scratch = new SimScratch(g.n)
  private val costsAcc = new Costs
  private var storedEdges = 0L

  override def build(rng: SplittableRandom): Unit = {
    // Every entry is redrawn per snapshot, so one array serves all τ. The
    // τ·m draws are rng's own, run in locals (SplitMix); rng resumes after.
    val live = new Array[Boolean](g.m)
    val threshold = g.outEdges.threshold
    val gamma = SplitMix.gamma(rng)
    var state = SplitMix.seed(rng)
    var i = 0
    while (i < tau) {
      val off = new Array[Int](g.n + 1)
      var e = 0
      while (e < g.m) {
        state += gamma
        live(e) = (SplitMix.mix64(state) >>> 11) < threshold(e)
        e += 1
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
    SplitMix.setSeed(rng, state)
  }

  /** BFS from `v` over live edges of snapshot `i`, skipping removed
    * vertices; returns the number of vertices reached. When `delete` is
    * set, reached vertices are marked removed (the Update path).
    */
  private def reach(i: Int, v: Int, delete: Boolean): Int = {
    if (removed(i)(v)) return 0
    val off = snapOffsets(i)
    val dst = snapDst(i)
    val rem = removed(i)
    scratch.reset()
    val mark = scratch.mark
    val stamp = scratch.stamp
    val queue = scratch.queue
    mark(v) = stamp
    queue(0) = v
    var head = 0
    var tail = 1
    var edges = 0L
    while (head < tail) {
      val u = queue(head); head += 1
      var e = off(u)
      val end = off(u + 1)
      edges += end - e
      while (e < end) {
        val w = dst(e)
        if (mark(w) != stamp && !rem(w)) {
          mark(w) = stamp
          queue(tail) = w; tail += 1
        }
        e += 1
      }
    }
    costsAcc.vertex += tail
    costsAcc.edge += edges
    if (delete) {
      var q = 0
      while (q < tail) { rem(queue(q)) = true; q += 1 }
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
