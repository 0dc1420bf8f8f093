package repro.core

import repro.graphs.LocalGraph

/** Exact influence-spread computation by brute-force enumeration of all 2^m
  * live-edge worlds (the random-graph interpretation of §2.2).
  *
  * Stands in for the BDD-based exact method of the paper's §3.6 — which was
  * itself only feasible "on graphs with up to a hundred edges" — and serves
  * as the ground truth for unbiasedness tests of the three estimators.
  * Influence computation is #P-hard, so this is intentionally restricted to
  * tiny graphs (m ≤ 22).
  */
object ExactInfluence {

  private val MaxEdges = 22

  /** Exact Inf_𝒢(S) = E_{G~𝒢}[r_G(S)] by enumerating every edge subset. */
  def influence(g: LocalGraph, seeds: Seq[Int]): Double = {
    require(g.m <= MaxEdges, s"exact enumeration limited to m<=$MaxEdges, got m=${g.m}")
    require(seeds.nonEmpty && seeds.forall(v => v >= 0 && v < g.n))
    val m = g.m
    val prob = g.outEdges.threshold.map(LocalGraph.prob)
    val seedArr = seeds.distinct.toArray
    var total = 0.0
    var mask = 0L
    val worlds = 1L << m
    val visited = new Array[Boolean](g.n)
    val queue = new Array[Int](g.n)
    while (mask < worlds) {
      var p = 1.0
      var e = 0
      while (e < m) {
        p *= (if ((mask >> e & 1L) == 1L) prob(e) else 1.0 - prob(e))
        e += 1
      }
      if (p > 0.0) {
        java.util.Arrays.fill(visited, false)
        var tail = 0
        seedArr.foreach { s =>
          if (!visited(s)) { visited(s) = true; queue(tail) = s; tail += 1 }
        }
        var head = 0
        while (head < tail) {
          val u = queue(head); head += 1
          var i = g.outOffsets(u)
          while (i < g.outOffsets(u + 1)) {
            val w = g.outDst(i)
            if ((mask >> i & 1L) == 1L && !visited(w)) {
              visited(w) = true; queue(tail) = w; tail += 1
            }
            i += 1
          }
        }
        total += p * tail
      }
      mask += 1
    }
    total
  }

  /** Exact Inf(v) for every vertex. */
  def singleVertexInfluences(g: LocalGraph): Array[Double] =
    Array.tabulate(g.n)(v => influence(g, Seq(v)))

  /** Exact greedy on the exact influence function — the paper's "Exact
    * Greedy" limit object (§5.2.1). Ties break toward the lowest vertex id,
    * making the result deterministic.
    */
  def greedy(g: LocalGraph, k: Int): (Seq[Int], Double) = {
    require(k >= 1 && k <= g.n)
    var seeds = Vector.empty[Int]
    var value = 0.0
    for (_ <- 1 to k) {
      var bestV = -1
      var bestVal = Double.NegativeInfinity
      for (v <- 0 until g.n if !seeds.contains(v)) {
        val inf = influence(g, seeds :+ v)
        if (inf > bestVal) { bestVal = inf; bestV = v }
      }
      seeds = seeds :+ bestV
      value = bestVal
    }
    (seeds, value)
  }
}
