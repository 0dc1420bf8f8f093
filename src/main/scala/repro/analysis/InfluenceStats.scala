package repro.analysis

/** Influence-distribution diagnostics (paper §5.2): the least sample number
  * achieving 99%-probability near-optimality.
  */
object InfluenceStats {

  /** The paper's near-optimality criterion (§5.2.1): a trial succeeds if
    * its influence is ≥ 0.95 × the Exact-Greedy reference. Returns the
    * least sample number in `curve` (sampleNumber → per-trial influences)
    * whose success fraction is ≥ 0.99, or None.
    */
  def leastSampleNumber(curve: Seq[(Long, Seq[Double])], reference: Double): Option[Long] = {
    val threshold = 0.95 * reference
    curve.sortBy(_._1).collectFirst {
      case (s, vals) if vals.nonEmpty &&
        vals.count(_ >= threshold).toDouble / vals.size >= 0.99 => s
    }
  }
}
