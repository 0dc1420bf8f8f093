package repro.core

import java.util.SplittableRandom
import repro.graphs.LocalGraph

/** Naive RIS estimator (paper Algorithm 3.4, Reverse Influence Sampling).
  *
  * `Build` draws θ RR sets; `Estimate(v)` returns n · F_R(v) where F_R(v)
  * is the fraction of the θ drawn RR sets containing v that are not yet
  * covered — i.e. the unbiased marginal-influence estimate; `Update(v)`
  * removes ("covers") every RR set containing the new seed, which is the
  * paper's Algorithm 3.4 line 8 implemented with coverage counts and an
  * inverted vertex→RR-set index, the fast scheme of [7, Theorem 3.1]. The
  * sets are drawn as ⌈θ/65,536⌉ consecutive [[RRCollection]]s on one
  * stream, one per page of the one [[RRCollection.invert]] index.
  *
  * Traversal cost is incurred only by RR-set generation (§3.5.2): vertex
  * cost Σ|R|, edge cost Σ w(R). Estimate/Update are O(1)/O(coverage)
  * bookkeeping on the stored samples. The sample size is the number of
  * stored RR-set vertices, expected θ·EPT.
  *
  * @param g     influence graph
  * @param theta sample number θ = number of RR sets
  */
final class Ris(g: LocalGraph, theta: Int) extends InfluenceEstimator {
  require(theta >= 1, s"theta=$theta must be >= 1")

  private val costsAcc = new Costs
  private var pages = Array.empty[RRCollection]                // page p holds ids p·PageSize + i
  private var index: RRCollection.Index = _                    // v -> RR ids; set by build
  private val covered = new Array[Boolean](theta)
  private val cnt = new Array[Int](g.n)                        // uncovered RR sets containing v

  override def build(rng: SplittableRandom): Unit = {
    val size = RRCollection.PageSize
    pages = Array.tabulate(((theta.toLong + size - 1) / size).toInt) { p =>
      RRCollection.generate(g.inEdges, math.min(size, theta - p * size), rng, costsAcc)
    }
    index = RRCollection.invert(g.n, pages.length, 1)(pages(_))
    var v = 0
    while (v < g.n) { cnt(v) = index.count(v); v += 1 }
  }

  override def estimate(v: Int, rng: SplittableRandom): Double =
    g.n.toDouble * cnt(v) / theta

  override def update(v: Int, rng: SplittableRandom): Unit = {
    val offsets = index.offsets
    val ids = index.ids
    var p = 0
    while (p < pages.length) {
      val rr = pages(p)
      val base = p * RRCollection.PageSize
      var j = offsets(v * pages.length + p)
      while (j < offsets(v * pages.length + p + 1)) {
        val i = ids(j)
        if (!covered(base + i)) {
          covered(base + i) = true
          var t = rr.offsets(i)
          while (t < rr.offsets(i + 1)) { cnt(rr.members(t)) -= 1; t += 1 }
        }
        j += 1
      }
      p += 1
    }
  }

  override def costs: Costs = costsAcc
  override def sampleSize: Long = pages.map(_.storedVertices).sum
}
