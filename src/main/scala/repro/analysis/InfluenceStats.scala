package repro.analysis

/** Influence-distribution diagnostics (paper §5.2): summary statistics per
  * sample number and the least sample number achieving 99%-probability
  * near-optimality.
  */
object InfluenceStats {

  /** Summary of one empirical influence distribution I⁽ˢ⁾. */
  final case class Summary(mean: Double, std: Double, p01: Double,
                           p50: Double, p99: Double, min: Double, max: Double)

  /** Local summary of a sample of influence values. */
  def summarize(values: Seq[Double]): Summary = {
    require(values.nonEmpty)
    val sorted = values.sorted
    val n = sorted.size
    val mean = sorted.sum / n
    val varr = sorted.map(x => (x - mean) * (x - mean)).sum / n
    def pct(q: Double): Double = sorted(math.min(n - 1, math.max(0, math.ceil(q * n).toInt - 1)))
    Summary(mean, math.sqrt(varr), pct(0.01), pct(0.50), pct(0.99),
            sorted.head, sorted.last)
  }

  /** The paper's near-optimality criterion (§5.2.1): a trial succeeds if
    * its influence is ≥ 0.95 × the Exact-Greedy reference. Returns the
    * least sample number in `curve` (sampleNumber → per-trial influences)
    * whose success fraction is ≥ `minProb`, or None.
    */
  def leastSampleNumber(curve: Seq[(Long, Seq[Double])], reference: Double,
                        ratio: Double = 0.95,
                        minProb: Double = 0.99): Option[Long] = {
    val threshold = ratio * reference
    curve.sortBy(_._1).collectFirst {
      case (s, vals) if vals.nonEmpty &&
        vals.count(_ >= threshold).toDouble / vals.size >= minProb => s
    }
  }
}
