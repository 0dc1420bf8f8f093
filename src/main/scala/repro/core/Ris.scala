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
  * sets and the index are one [[RRCollection]].
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
  private var rr = new RRCollection(g.n, Array(0), Array.emptyIntArray)
  private var index: (Array[Int], Array[Int]) = _             // v -> RR ids, CSR; set by build
  private val covered = new Array[Boolean](theta)
  private val cnt = new Array[Int](g.n)                       // uncovered RR sets containing v

  override def build(rng: SplittableRandom): Unit = {
    rr = RRCollection.generate(g.inEdges, theta, rng, costsAcc)
    index = RRCollection.invert(g.n, 1, 1)(_ => rr)
    val offsets = index._1
    var v = 0
    while (v < g.n) { cnt(v) = offsets(v + 1) - offsets(v); v += 1 }
  }

  override def estimate(v: Int, rng: SplittableRandom): Double =
    g.n.toDouble * cnt(v) / theta

  override def update(v: Int, rng: SplittableRandom): Unit = {
    val (offsets, ids) = index
    var j = offsets(v)
    while (j < offsets(v + 1)) {
      val id = ids(j)
      if (!covered(id)) {
        covered(id) = true
        var t = rr.offsets(id)
        while (t < rr.offsets(id + 1)) { cnt(rr.members(t)) -= 1; t += 1 }
      }
      j += 1
    }
  }

  override def costs: Costs = costsAcc
  override def sampleSize: Long = rr.storedVertices
}
