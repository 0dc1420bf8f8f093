package repro.exp

import org.apache.spark.sql.SparkSession
import repro.graphs.ProbModel
import repro.spark.{Alg, RRSetJob}
import scala.collection.concurrent.TrieMap

/** One sweep row: (network, probability model, seed size) plus the scaled
  * sweep configuration used in this reproduction. Paper scale (T = 1,000
  * trials, grids to 2¹⁶/2²⁴) is cut down per DESIGN.md §3; the grids stay
  * powers of two so every ratio statistic keeps the paper's structure.
  */
final case class SweepRow(network: NetworkSpec, model: ProbModel, k: Int,
                          cfg: Sweep.Config) {
  def id: String = s"${network.name}/${model.name}/k=$k"
}

/** The scoped experiment plan: the rows `Tables` tabulates for `Main` and
  * the `bench/` suites.
  */
object BenchPlan {

  import Instances._

  private def cfg(trials: Int, oneshot: Long, snapshot: Long, ris: Long): Sweep.Config =
    Sweep.Config(trials = trials, oneshotMax = oneshot, snapshotMax = snapshot, risMax = ris)

  private val allModels = ProbModel.all
  private val cheapModels = Seq(ProbModel.uc001, ProbModel.IWC, ProbModel.OWC)

  /** Networks of the paper's Table 4. */
  val table4Networks: Seq[NetworkSpec] = Seq(baS, baD)

  /** Sweep rows behind Tables 5, 6, 7 and 9.
    *
    * Oneshot's naive complexity is O(βknm) — every Estimate re-simulates
    * the whole current seed set — so its grid maximum shrinks with k (the
    * paper hit the same wall: cells that "took over weeks" are blank).
    */
  val sweepRows: Seq[SweepRow] = {
    val rows = Seq.newBuilder[SweepRow]
    for (m <- allModels) {
      rows += SweepRow(karate, m, 1, cfg(300, 1L << 12, 1L << 12, 1L << 16))
      rows += SweepRow(karate, m, 4, cfg(300, 1L << 11, 1L << 11, 1L << 16))
      rows += SweepRow(karate, m, 16, cfg(150, 1L << 10, 1L << 10, 1L << 15))
    }
    for (m <- allModels) {
      rows += SweepRow(physicians, m, 1, cfg(200, 1L << 12, 1L << 12, 1L << 16))
      rows += SweepRow(physicians, m, 4, cfg(120, 1L << 10, 1L << 10, 1L << 16))
      rows += SweepRow(physicians, m, 16, cfg(60, 1L << 8, 1L << 10, 1L << 15))
    }
    for (m <- allModels) {
      rows += SweepRow(baS, m, 1, cfg(200, 1L << 11, 1L << 11, 1L << 17))
      rows += SweepRow(baS, m, 4, cfg(120, 1L << 10, 1L << 10, 1L << 16))
      rows += SweepRow(baS, m, 16, cfg(40, 1L << 8, 1L << 9, 1L << 15))
    }
    // BA_d's IWC/OWC influences are large (Inf(v¹) ≈ 100) and its
    // out-degree ≈ 11, so Oneshot's O(βknm) blows up fastest here — grids
    // shrink sharply with k, and k = 16 drops Oneshot entirely (the paper
    // likewise leaves BA_d k=16 cells blank where runs took too long).
    rows += SweepRow(baD, ProbModel.uc01, 1, cfg(50, 1L << 8, 1L << 8, 1L << 14))
    rows += SweepRow(baD, ProbModel.uc01, 4, cfg(24, 1L << 6, 1L << 8, 1L << 14))
    for (m <- cheapModels) {
      rows += SweepRow(baD, m, 1, cfg(100, 1L << 10, 1L << 10, 1L << 16))
      rows += SweepRow(baD, m, 4, cfg(30, 1L << 7, 1L << 10, 1L << 15))
    }
    for (m <- Seq(ProbModel.uc001, ProbModel.IWC))
      rows += SweepRow(baD, m, 16, cfg(16, 0L, 1L << 8, 1L << 14))
    rows += SweepRow(caGrQc, ProbModel.uc01, 1, cfg(30, 1L << 7, 1L << 7, 1L << 15))
    for (m <- cheapModels) {
      rows += SweepRow(caGrQc, m, 1, cfg(30, 1L << 9, 1L << 9, 1L << 17))
      rows += SweepRow(caGrQc, m, 4, cfg(16, 1L << 8, 1L << 9, 1L << 16))
    }
    for (m <- cheapModels) {
      rows += SweepRow(wikiVote, m, 1, cfg(30, 1L << 8, 1L << 8, 1L << 17))
      rows += SweepRow(wikiVote, m, 4, cfg(16, 1L << 6, 1L << 8, 1L << 16))
    }
    for (m <- cheapModels)
      rows += SweepRow(youtube, m, 1, cfg(12, 0L, 1L << 6, 1L << 16))
    for (m <- cheapModels)
      rows += SweepRow(pokec, m, 1, cfg(12, 0L, 1L << 6, 1L << 16))
    rows.result()
  }

  def sweepRow(networkName: String, modelName: String, k: Int): Option[SweepRow] =
    sweepRows.find(r => r.network.name == networkName &&
                        r.model.name == modelName && r.k == k)

  /** Table 8 plan: (network, models, include Oneshot, trials). The paper
    * leaves UC0.1 cells blank on Wiki-Vote and the two large networks and
    * runs no Oneshot at all on the large ones.
    */
  final case class Table8Row(network: NetworkSpec, models: Seq[ProbModel],
                             withOneshot: Boolean, trials: Int) {
    def algs: Seq[Alg] = if (withOneshot) Alg.all else Seq(Alg.SnapshotAlg, Alg.RisAlg)
  }

  val table8Rows: Seq[Table8Row] = Seq(
    Table8Row(karate, allModels, withOneshot = true, trials = 200),
    Table8Row(physicians, allModels, withOneshot = true, trials = 200),
    Table8Row(caGrQc, allModels, withOneshot = true, trials = 50),
    Table8Row(wikiVote, cheapModels, withOneshot = true, trials = 50),
    Table8Row(youtube, cheapModels, withOneshot = false, trials = 20),
    Table8Row(pokec, cheapModels, withOneshot = false, trials = 20),
    Table8Row(baS, allModels, withOneshot = true, trials = 200),
    Table8Row(baD, allModels, withOneshot = true, trials = 100),
  )

  /** Networks of the paper's Table 9 (derived at k = 1). */
  val table9Networks: Seq[NetworkSpec] =
    Seq(caGrQc, wikiVote, youtube, pokec, baS, baD)

  /** Oracle size per network; larger graphs get more RR sets to keep the
    * estimator's confidence interval small relative to typical influences.
    */
  def oracleTheta(spec: NetworkSpec): Long =
    if (Instances.graph(spec).n >= 10000) 500000L else 300000L
}

/** Process-wide caches so the tables (which share sweep rows and Table 8
  * cells) compute each oracle, sweep and per-sample cost once per JVM.
  */
object SweepStore {
  private val oracles = TrieMap.empty[(NetworkSpec, ProbModel), RRSetJob]
  private val sweeps = TrieMap.empty[SweepRow, Sweep.Result]
  private val costs = TrieMap.empty[(NetworkSpec, ProbModel, Alg, Int), Tables.PerSampleCost]

  /** Shared RR-set oracle for one (network, model) influence graph. */
  def oracle(spark: SparkSession, spec: NetworkSpec, model: ProbModel): RRSetJob =
    oracles.getOrElseUpdate((spec, model), RRSetJob(spark, Instances.influenceGraph(spec, model),
                                                    BenchPlan.oracleTheta(spec), seed = 909090L))

  /** Sweep result for one plan row, computed on first request. */
  def sweep(spark: SparkSession, row: SweepRow): Sweep.Result =
    sweeps.getOrElseUpdate(row, Sweep.run(spark, Instances.influenceGraph(row.network, row.model),
                                          oracle(spark, row.network, row.model), row.k, row.cfg))

  /** Table 8 per-sample cost of one (network, model, alg) over `trials`
    * trials, computed on first request; Table 9 reads the same cells.
    */
  def perSampleCost(spark: SparkSession, spec: NetworkSpec, model: ProbModel, alg: Alg,
                    trials: Int): Tables.PerSampleCost =
    costs.getOrElseUpdate((spec, model, alg, trials),
      Tables.table8Cell(spark, Instances.influenceGraph(spec, model), alg, trials))
}
