package repro.analysis

/** The median that Tables 6, 7 and 9 take of comparable number/size ratios
  * (paper §5.2.3). The ratios themselves are read off the sweep curves in
  * `repro.exp.Tables`.
  */
object ComparableRatio {

  /** Median (lower-middle element for even sizes, as ratios are discrete
    * powers of two in the number case).
    */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of empty ratio list")
    val s = xs.sorted
    s((s.size - 1) / 2)
  }

  def medianOpt(xs: Seq[Double]): Option[Double] =
    if (xs.isEmpty) None else Some(median(xs))
}
