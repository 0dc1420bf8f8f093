package repro.exp

import org.apache.spark.sql.SparkSession
import repro.analysis.{ComparableRatio, InfluenceStats}
import repro.graphs.{GraphFrames, LocalGraph, ProbModel}
import repro.spark.{Alg, RRSetJob, TrialRunner}

/** Row computations for every evaluation table of the paper (Tables 3–9).
  * The `jobs/` entrypoints and the `bench/` suites both call these, so the
  * printed rows come from a single implementation.
  */
object Tables {

  // ---------------------------------------------------------------- Table 3

  /** Table 3: network statistics for the given specs. */
  def table3(spark: SparkSession, specs: Seq[NetworkSpec]): Seq[GraphFrames.NetworkStats] =
    specs.map { spec =>
      GraphFrames.networkStats(spark, spec.name, Instances.graph(spec), spec.withDistance)
    }

  // ---------------------------------------------------------------- Table 4

  /** Table 4 row: top-`top` single-vertex influence spreads on one
    * (network, probability model), estimated with the shared oracle. A
    * singleton's estimate grows with the number of RR sets holding it, so
    * vertices are ranked by inverted-list length, ties to the lower id.
    */
  def table4Row(oracle: RRSetJob, top: Int = 3): Seq[Double] = {
    val (offsets, _) = oracle.invertedIndex
    val vs = (0 until oracle.g.n).sortBy(v => (offsets(v) - offsets(v + 1), v)).take(top)
    val inf = oracle.influenceOfSets(vs.map(Seq(_)))
    vs.map(v => inf(v.toString))
  }

  // ---------------------------------------------------------------- Table 5

  /** Table 5 cell for one algorithm: log₂ of the least sample number s*
    * whose trials are ≥ 0.95 × reference with probability ≥ 0.99, plus the
    * seed-set entropy H* at s*. None when no grid point qualifies (the
    * paper's "> max" cells).
    */
  final case class LeastSample(log2SampleNumber: Int, entropy: Double)

  def table5Cell(sweep: Sweep.Result, alg: Alg): Option[LeastSample] = {
    val curve = sweep.curve(alg).map(p => p.sampleNumber -> p.influences)
    InfluenceStats.leastSampleNumber(curve, sweep.referenceInfluence).map { s =>
      val p = sweep.curve(alg).find(_.sampleNumber == s).get
      LeastSample(java.lang.Long.numberOfTrailingZeros(s), p.entropy)
    }
  }

  // ------------------------------------------------------------ Tables 6, 7

  /** Table 6 cell: median comparable number ratio of Oneshot to Snapshot. */
  def table6Cell(sweep: Sweep.Result): Option[Double] =
    ComparableRatio.medianOpt(ComparableRatio.numberRatios(
      sweep.ratioCurve(Alg.SnapshotAlg), sweep.ratioCurve(Alg.OneshotAlg)))

  /** Table 7 cells: median comparable (number, size) ratios of RIS to
    * Snapshot.
    */
  def table7Cell(sweep: Sweep.Result): (Option[Double], Option[Double]) = {
    val base = sweep.ratioCurve(Alg.SnapshotAlg)
    val target = sweep.ratioCurve(Alg.RisAlg)
    (ComparableRatio.medianOpt(ComparableRatio.numberRatios(base, target)),
     ComparableRatio.medianOpt(ComparableRatio.sizeRatios(base, target)))
  }

  // ---------------------------------------------------------------- Table 8

  /** Table 8 cell: average vertex/edge traversal cost of one full greedy
    * run at k = 1 with sample number 1 (the paper's per-sample cost).
    */
  final case class PerSampleCost(vertex: Double, edge: Double) {
    def total: Double = vertex + edge
  }

  def table8Cell(spark: SparkSession, g: LocalGraph, alg: Alg, trials: Int,
                 baseSeed: Long = 88L): PerSampleCost = {
    val rows = TrialRunner.runCollect(spark, g, alg, sampleNumber = 1, k = 1,
                                      trials = trials, baseSeed = baseSeed)
    PerSampleCost(rows.map(_.vertex_cost.toDouble).sum / rows.size,
                  rows.map(_.edge_cost.toDouble).sum / rows.size)
  }

  // ---------------------------------------------------------------- Table 9

  /** Table 9 cell: traversal cost (vertex + edge, in γ units) at k = 1 when
    * the three algorithms are conditioned to identical accuracy — the
    * per-sample cost multiplied by the algorithm's comparable number ratio
    * to Snapshot (ratio 1 for Snapshot itself).
    */
  def table9Cell(perSample: PerSampleCost, comparableRatio: Double): Double =
    perSample.total * comparableRatio

  // ------------------------------------------------------------- formatting

  def fmt(d: Double): String =
    if (d.isNaN) "-"
    else if (d == d.floor && math.abs(d) < 1e15) f"${d.toLong}%,d"
    else if (math.abs(d) >= 100) f"$d%,.1f"
    else f"$d%.4g"

  def fmtOpt(o: Option[Double]): String = o.map(fmt).getOrElse("-")

  /** Builds the probability models used across tables, in paper order. */
  val models: Seq[ProbModel] = ProbModel.all
}
