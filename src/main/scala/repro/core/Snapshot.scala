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
  * The τ snapshots sit in one flat store: the live out-edges of u in
  * snapshot i are `dst(offsets(i·n + u) until offsets(i·n + u + 1))`, and
  * `removed(i·n + v)` marks v as reached in snapshot i. τ·n + 1 and the
  * live-edge count must not exceed [[RRCollection.MaxLength]].
  *
  * Cost accounting follows the paper: `Build`'s τ·m coin flips are *not*
  * traversal (§3.4.2: they do not dominate); Estimate/Update BFS scans are.
  * The sample size is the number of live edges stored, expected τ·m̃.
  *
  * @param g   influence graph
  * @param tau sample number τ = number of snapshots
  */
final class Snapshot(g: LocalGraph, tau: Int) extends InfluenceEstimator {
  require(tau >= 1, s"tau=$tau must be >= 1")
  require(tau.toLong * g.n + 1 <= RRCollection.MaxLength,
          s"tau=$tau, n=${g.n}: tau*n + 1 offsets exceed the limit ${RRCollection.MaxLength}")

  private val n = g.n
  private val offsets = new Array[Int](tau * n + 1)
  private var dst = Array.emptyIntArray
  private val removed = new Array[Boolean](tau * n)
  private val scratch = new SimScratch(n)
  private val costsAcc = new Costs

  override def build(rng: SplittableRandom): Unit = {
    // Rows in id order and edges in CSR order: each snapshot draws over edges
    // 0 … m−1, with rng's own draws run in locals (SplitMix); rng resumes after.
    val rows = g.outEdges.offsets
    val adj = g.outEdges.adj
    val threshold = g.outEdges.threshold
    val gamma = SplitMix.gamma(rng)
    var state = SplitMix.seed(rng)
    var live = new Array[Int](16)
    var len = 0
    var i = 0
    while (i < tau) {
      var u = 0
      while (u < n) {
        var e = rows(u)
        val end = rows(u + 1)
        while (e < end) {
          state += gamma
          if ((SplitMix.mix64(state) >>> 11) < threshold(e)) {
            if (len == live.length) {
              require(len < RRCollection.MaxLength,
                s"tau=$tau, n=$n: stored live edges exceed the limit ${RRCollection.MaxLength}")
              live = RRCollection.grow(live, len + 1L)
            }
            live(len) = adj(e); len += 1
          }
          e += 1
        }
        u += 1
        offsets(i * n + u) = len
      }
      i += 1
    }
    dst = java.util.Arrays.copyOf(live, len)
    SplitMix.setSeed(rng, state)
  }

  /** BFS from `v` over live edges of snapshot `i`, skipping removed
    * vertices; returns the number of vertices reached. When `delete` is
    * set, reached vertices are marked removed (the Update path).
    */
  private def reach(i: Int, v: Int, delete: Boolean): Int = {
    val base = i * n
    if (removed(base + v)) return 0
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
      var e = offsets(base + u)
      val end = offsets(base + u + 1)
      edges += end - e
      while (e < end) {
        val w = dst(e)
        if (mark(w) != stamp && !removed(base + w)) {
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
      while (q < tail) { removed(base + queue(q)) = true; q += 1 }
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
  override def sampleSize: Long = offsets(tau * n).toLong
}
