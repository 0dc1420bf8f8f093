package repro.analysis

/** Seed-set distribution diagnostics (paper §5.1).
  *
  * The diversity of the empirical seed-set distribution is its Shannon
  * entropy H = −Σ_S p_S log₂ p_S; from T trials H ≤ log₂ T, and H = 0 means
  * the distribution is degenerate (a unique solution).
  */
object SeedSetStats {

  /** Shannon entropy in bits of the seed-set distribution given by the
    * trials' seed-set keys; 0 for the empty sample.
    */
  def entropyOfKeys(keys: Seq[String]): Double = {
    if (keys.isEmpty) return 0.0
    val t = keys.size.toDouble
    keys.groupBy(identity).values
      .map(_.size / t)
      .map(p => -p * math.log(p) / math.log(2.0))
      .sum
  }
}
