package repro.core

import java.util.SplittableRandom

/** Result of one greedy run: seeds in selection order plus the estimator's
  * cost accounting.
  */
final case class GreedyResult(
    seeds: Array[Int],
    estimates: Array[Double],
    vertexCost: Long,
    edgeCost: Long,
    sampleSize: Long,
) {
  /** Canonical order-insensitive identity of the seed set. */
  def seedSetKey: String = GreedyResult.keyOf(seeds)
}

object GreedyResult {
  /** The key of a seed set given in any order: its ids ascending, joined by `,`. */
  def keyOf(ids: collection.Seq[Int]): String = ids.sorted.mkString(",")
}

/** The paper's Algorithm 3.1: simple greedy framework.
  *
  * The vertex order is shuffled once up front and ties are broken by taking
  * the *last* vertex attaining the maximum estimate, which — combined with
  * the shuffle — breaks ties uniformly at random (paper §4.1).
  */
object Greedy {

  /** Runs k greedy iterations of `est` over vertex ids `0 until n`. */
  def run(n: Int, k: Int, est: InfluenceEstimator, rng: SplittableRandom): GreedyResult = {
    require(k >= 1 && k <= n, s"seed size k=$k outside [1,$n]")
    est.build(rng)
    val order = Array.tabulate(n)(identity)
    shuffle(order, rng)
    val selected = new Array[Boolean](n)
    val seeds = new Array[Int](k)
    val ests = new Array[Double](k)
    var l = 0
    while (l < k) {
      var best = Double.NegativeInfinity
      var bestV = -1
      var i = 0
      while (i < n) {
        val v = order(i)
        if (!selected(v)) {
          val e = est.estimate(v, rng)
          if (e >= best) { best = e; bestV = v } // ">=": last max wins
        }
        i += 1
      }
      // Update is skipped after the final selection: it only prepares the
      // estimator for a next iteration that never happens, and counting its
      // traversal would skew the k=1 cost accounting of the paper's Table 8.
      if (l < k - 1) est.update(bestV, rng)
      selected(bestV) = true
      seeds(l) = bestV
      ests(l) = best
      l += 1
    }
    GreedyResult(seeds, ests, est.costs.vertex, est.costs.edge, est.sampleSize)
  }

  /** Fisher–Yates shuffle driven by the run's PRNG. */
  def shuffle(a: Array[Int], rng: SplittableRandom): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }
}
