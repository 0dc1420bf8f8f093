package repro.exp

import org.apache.spark.sql.SparkSession
import repro.analysis.ComparableRatio
import repro.graphs.{GraphFrames, LocalGraph, ProbModel}
import repro.spark.{Alg, RRSetJob, TrialRow, TrialRunner}

/** Every evaluation table of the paper (Tables 3–9): one function per table
  * that takes the plan rows it tabulates and returns typed rows in print
  * order, and one `tableNLines` renderer of the `[tableN]` header and rows.
  * `Main` and the `bench/` suites both call these, so each printed row comes
  * from a single implementation.
  */
object Tables {

  /** The rendered lines of paper Table `table` (3–9) on the full plan. */
  def lines(spark: SparkSession, table: Int): Seq[String] = table match {
    case 3 => table3Lines(table3(spark, Instances.all))
    case 4 => table4Lines(table4(spark, BenchPlan.table4Networks))
    case 5 => table5Lines(table5(spark, BenchPlan.sweepRows))
    case 6 => table6Lines(table6(spark, BenchPlan.sweepRows))
    case 7 => table7Lines(table7(spark, BenchPlan.sweepRows))
    case 8 => table8Lines(table8(spark, BenchPlan.table8Rows))
    case 9 => table9Lines(table9(spark, BenchPlan.table9Networks, BenchPlan.table8Rows,
                                 BenchPlan.sweepRows))
  }

  // ---------------------------------------------------------------- Table 3

  /** Table 3: network statistics for the given specs, computed on the driver
    * without a Spark job. `spark` is unused; it stays in the signature for
    * callers outside this repository's library, such as the benchmark.
    */
  def table3(spark: SparkSession, specs: Seq[NetworkSpec]): Seq[GraphFrames.NetworkStats] =
    specs.map { spec =>
      GraphFrames.networkStats(spec.name, Instances.graph(spec), spec.withDistance)
    }

  def table3Lines(rows: Seq[GraphFrames.NetworkStats]): Seq[String] =
    "[table3] network          n          m   maxOut    maxIn  clusCoef  avgDist" +:
      rows.map { s =>
        val avg = if (s.avgDistance.isNaN) "-" else f"${s.avgDistance}%.2f"
        f"[table3] ${s.name}%-14s ${s.n}%8d ${s.m}%10d ${s.maxOut}%8d ${s.maxIn}%8d ${s.clusteringCoef}%9.2f $avg%8s"
      }

  // ---------------------------------------------------------------- Table 4

  /** Table 4 row: top-`top` single-vertex influence spreads on one
    * (network, probability model), estimated with the shared oracle. The RR
    * sets {v} covers are v's inverted list: vertices rank by list length,
    * ties to the lower id, and Inf(v) is [[RRSetJob.spread]] of the length.
    */
  def table4Row(oracle: RRSetJob, top: Int = 3): Seq[Double] = {
    val offsets = oracle.invertedIndex._1
    topByCount(offsets, top).map(v => oracle.spread(offsets(v + 1) - offsets(v)))
  }

  /** The first `top` vertices (all of them when fewer) of the CSR index
    * with row offsets `offsets`, by row length descending, ties to the
    * lower id. One pass over the vertices in id order, each inserted into
    * the sorted top list only when it beats the list's last entry.
    */
  def topByCount(offsets: Array[Int], top: Int): Seq[Int] = {
    val n = offsets.length - 1
    val k = math.max(0, math.min(top, n))
    val best = new Array[Int](k)
    val count = new Array[Int](k)
    var size = 0
    var v = 0
    while (v < n) {
      val c = offsets(v + 1) - offsets(v)
      if (size < k || (k > 0 && c > count(k - 1))) {
        if (size < k) size += 1
        var i = size - 1
        while (i > 0 && count(i - 1) < c) { best(i) = best(i - 1); count(i) = count(i - 1); i -= 1 }
        best(i) = v
        count(i) = c
      }
      v += 1
    }
    best.toSeq
  }

  /** One Table 4 row: the top-3 singleton influences of one (network, model). */
  final case class TopInfluence(network: String, model: String, top: Seq[Double])

  /** Table 4 on `specs` × all models from the shared oracles, in (network,
    * model) name order.
    */
  def table4(spark: SparkSession, specs: Seq[NetworkSpec]): Seq[TopInfluence] =
    (for (spec <- specs; model <- models)
      yield TopInfluence(spec.name, model.name, table4Row(SweepStore.oracle(spark, spec, model))))
      .sortBy(r => (r.network, r.model))

  /** The `[table4]` lines; a row of fewer than 3 values (n < 3) shows
    * `-` for each missing one.
    */
  def table4Lines(rows: Seq[TopInfluence]): Seq[String] =
    "[table4] network  model    Inf(v1)    Inf(v2)    Inf(v3)" +:
      rows.map { r =>
        val cells = (0 until 3).map(i => r.top.lift(i).fold(f"${"-"}%9s")(v => f"$v%9.4f"))
        f"[table4] ${r.network}%-8s ${r.model}%-7s " + cells.mkString(" ")
      }

  // ---------------------------------------------------------------- Table 5

  /** One algorithm's Table 5 cell: not run on the row (its grid maximum is
    * 0, the paper's "-"), run without reaching near-optimality on its grid
    * (the paper's "> max"), or the least sample number reached.
    */
  sealed trait Table5Cell
  case object NotRun extends Table5Cell
  case object AboveMax extends Table5Cell

  /** log₂ of the least sample number s* whose trials are ≥ 0.95 × reference
    * with probability ≥ 0.99, plus the seed-set entropy H* at s*.
    */
  final case class LeastSample(log2SampleNumber: Int, entropy: Double) extends Table5Cell

  /** The Table 5 cell of `alg` on `sweep`, read off its curve in one pass:
    * NotRun when it has no grid point, else the first point (sample number
    * ascending) whose trials are ≥ 0.95 × the reference influence in at
    * least 99% of cases (paper §5.2.1), or AboveMax when none is.
    */
  def leastSample(sweep: Sweep.Result, alg: Alg): Table5Cell = {
    val curve = sweep.curve(alg)
    val reference = sweep.referenceInfluence
    if (curve.isEmpty) NotRun
    else curve.find { p =>
      val vals = p.influences
      vals.nonEmpty && vals.count(_ >= 0.95 * reference).toDouble / vals.size >= 0.99
    }.fold[Table5Cell](AboveMax) { p =>
      LeastSample(java.lang.Long.numberOfTrailingZeros(p.sampleNumber), p.entropy)
    }
  }

  /** One Table 5 row; `cells` follow `Alg.all` (Oneshot, Snapshot, RIS). */
  final case class LeastSampleRow(network: String, model: String, k: Int,
                                  cells: Seq[Table5Cell]) {
    def reached(alg: Alg): Option[LeastSample] =
      cells(Alg.all.indexOf(alg)) match {
        case l: LeastSample => Some(l)
        case _              => None
      }
  }

  /** Table 5 on the unstarred `rows`, in plan order. */
  def table5(spark: SparkSession, rows: Seq[SweepRow]): Seq[LeastSampleRow] =
    rows.filterNot(_.network.starred).map { row =>
      val sweep = SweepStore.sweep(spark, row)
      LeastSampleRow(row.network.name, row.model.name, row.k, Alg.all.map(leastSample(sweep, _)))
    }

  def table5Lines(rows: Seq[LeastSampleRow]): Seq[String] =
    "[table5] network        prob     k | lg b*    H* | lg t*    H* | lg th*   H*" +:
      rows.map { r =>
        val cells = r.cells.map {
          case LeastSample(lg, h) => f"$lg%5d $h%5.2f"
          case AboveMax           => f"${">max"}%5s ${"-"}%5s"
          case NotRun             => f"${"-"}%5s ${"-"}%5s"
        }
        f"[table5] ${r.network}%-14s ${r.model}%-7s ${r.k}%2d | ${cells.mkString(" | ")}"
      }

  // ------------------------------------------------------------ Tables 6, 7

  /** One entry per (network spec, k) of `rows`, in plan order, with the
    * network's name and `cell` of the row of each model in `models` order
    * (None where there is no row).
    */
  private def perModel[A](rows: Seq[SweepRow])(cell: SweepRow => A): Seq[(String, Int, Seq[Option[A]])] =
    rows.map(r => (r.network, r.k)).distinct.map { case (net, k) =>
      (net.name, k, models.map(m => rows.find(r => r.network == net && r.model == m && r.k == k).map(cell)))
    }

  /** The comparable pairs of `target` to Snapshot on `sweep` (paper
    * §5.2.3): each Snapshot point b, sample number ascending, with the
    * first `target` point whose mean influence reaches b's. A b that no
    * point reaches is dropped (the paper's "-" cells).
    */
  private def comparable(sweep: Sweep.Result, target: Alg): Seq[(Sweep.Point, Sweep.Point)] = {
    val curve = sweep.curve(target)
    sweep.curve(Alg.SnapshotAlg).flatMap(b => curve.find(_.meanInfluence >= b.meanInfluence).map(b -> _))
  }

  /** Median comparable number ratio s₂/s₁ of comparable pairs. */
  private def numberRatio(pairs: Seq[(Sweep.Point, Sweep.Point)]): Option[Double] =
    ComparableRatio.medianOpt(pairs.map { case (b, t) => t.sampleNumber.toDouble / b.sampleNumber })

  /** Table 6 cell: median comparable number ratio of Oneshot to Snapshot. */
  def table6Cell(sweep: Sweep.Result): Option[Double] = numberRatio(comparable(sweep, Alg.OneshotAlg))

  /** One Table 6 row: the ratio per model, in `models` order. */
  final case class OneshotRatioRow(network: String, k: Int, ratios: Seq[Option[Double]])

  /** Table 6 on the `rows` that run Oneshot. */
  def table6(spark: SparkSession, rows: Seq[SweepRow]): Seq[OneshotRatioRow] =
    perModel(rows.filter(_.cfg.oneshotMax > 0))(r => table6Cell(SweepStore.sweep(spark, r)))
      .map { case (net, k, cells) => OneshotRatioRow(net, k, cells.map(_.flatten)) }

  def table6Lines(rows: Seq[OneshotRatioRow]): Seq[String] =
    "[table6] network         k    UC0.1   UC0.01      IWC      OWC" +:
      rows.map { r =>
        val c = r.ratios.map(fmtOpt)
        f"[table6] ${r.network}%-14s ${r.k}%2d ${c(0)}%8s ${c(1)}%8s ${c(2)}%8s ${c(3)}%8s"
      }

  /** Table 7 cells: median comparable (number, size) ratios of RIS to
    * Snapshot. Snapshot points of sample size 0 have no size ratio; RIS
    * sizes are at least 1, as every RR set holds its target.
    */
  def table7Cell(sweep: Sweep.Result): (Option[Double], Option[Double]) = {
    val pairs = comparable(sweep, Alg.RisAlg)
    (numberRatio(pairs), ComparableRatio.medianOpt(pairs.collect {
      case (b, t) if b.meanSampleSize > 0.0 => t.meanSampleSize / b.meanSampleSize
    }))
  }

  /** One Table 7 row: number and size ratios per model, in `models` order. */
  final case class RisRatioRow(network: String, k: Int, numbers: Seq[Option[Double]],
                               sizes: Seq[Option[Double]])

  def table7(spark: SparkSession, rows: Seq[SweepRow]): Seq[RisRatioRow] =
    perModel(rows)(r => table7Cell(SweepStore.sweep(spark, r))).map { case (net, k, cells) =>
      val c = cells.map(_.getOrElse((None, None)))
      RisRatioRow(net, k, c.map(_._1), c.map(_._2))
    }

  def table7Lines(rows: Seq[RisRatioRow]): Seq[String] =
    "[table7] network         k |   number ratio (UC0.1 UC0.01 IWC OWC) |   size ratio (UC0.1 UC0.01 IWC OWC)" +:
      rows.map { r =>
        val nums = r.numbers.map(fmtOpt).mkString(" ")
        val sizes = r.sizes.map(_.map(v => f"$v%.4g").getOrElse("-")).mkString(" ")
        f"[table7] ${r.network}%-14s ${r.k}%2d | $nums | $sizes"
      }

  // ---------------------------------------------------------------- Table 8

  /** Table 8 cell: average vertex/edge traversal cost of one full greedy
    * run at k = 1 with sample number 1 (the paper's per-sample cost).
    */
  final case class PerSampleCost(vertex: Double, edge: Double) {
    def total: Double = vertex + edge
  }

  def table8Cell(spark: SparkSession, g: LocalGraph, alg: Alg, trials: Int): PerSampleCost = {
    val rows = TrialRunner.runCollect(spark, g, alg, sampleNumber = 1, k = 1,
                                      trials = trials, baseSeed = 88L)
    PerSampleCost(TrialRow.mean(rows)(_.vertex_cost), TrialRow.mean(rows)(_.edge_cost))
  }

  /** One Table 8 row: the per-sample cost of one (network, alg, model). */
  final case class TraversalCost(network: String, alg: String, model: String,
                                 cost: PerSampleCost)

  /** Table 8 on `rows`, in (network, alg, model) name order. */
  def table8(spark: SparkSession, rows: Seq[BenchPlan.Table8Row]): Seq[TraversalCost] =
    (for (row <- rows; alg <- row.algs; model <- row.models)
      yield TraversalCost(row.network.name, alg.name, model.name,
                          SweepStore.perSampleCost(spark, row.network, model, alg, row.trials)))
      .sortBy(c => (c.network, c.alg, c.model))

  def table8Lines(rows: Seq[TraversalCost]): Seq[String] =
    "[table8] network        alg       model        vertex          edge" +:
      rows.map { r =>
        f"[table8] ${r.network}%-14s ${r.alg}%-9s ${r.model}%-7s ${r.cost.vertex}%13.1f ${r.cost.edge}%13.1f"
      }

  // ---------------------------------------------------------------- Table 9

  /** Table 9 cell: traversal cost (vertex + edge, in γ units) at k = 1 when
    * the three algorithms are conditioned to identical accuracy — the
    * per-sample cost multiplied by the algorithm's comparable number ratio
    * to Snapshot (ratio 1 for Snapshot itself).
    */
  def table9Cell(perSample: PerSampleCost, comparableRatio: Double): Double =
    perSample.total * comparableRatio

  /** One Table 9 row: the cost of one (network, alg) per model, in `models`
    * order; None where the model is not in the network's Table 8 row, there
    * is no k = 1 sweep row, or the comparable ratio is undefined.
    */
  final case class ConditionedCost(network: String, alg: String, costs: Seq[Option[Double]])

  /** Table 9 on `networks`, reading the per-sample costs of `costRows` (the
    * Table 8 cells) and the comparable ratios of the k = 1 `sweepRows`, in
    * (network, alg) name order.
    */
  def table9(spark: SparkSession, networks: Seq[NetworkSpec],
             costRows: Seq[BenchPlan.Table8Row], sweepRows: Seq[SweepRow]): Seq[ConditionedCost] =
    (for {
      net <- networks
      t8 = costRows.find(_.network == net).get
      alg <- t8.algs
    } yield ConditionedCost(net.name, alg.name, models.map { model =>
      for {
        row <- sweepRows.find(r => r.network == net && r.model == model && r.k == 1)
        if t8.models.contains(model)
        sweep = SweepStore.sweep(spark, row)
        ratio <- if (alg == Alg.SnapshotAlg) Some(1.0) else numberRatio(comparable(sweep, alg))
      } yield table9Cell(SweepStore.perSampleCost(spark, net, model, alg, t8.trials), ratio)
    })).sortBy(r => (r.network, r.alg))

  def table9Lines(rows: Seq[ConditionedCost]): Seq[String] =
    "[table9] network        alg           UC0.1        UC0.01           IWC           OWC" +:
      rows.map { r =>
        val c = r.costs.map(fmtOpt)
        f"[table9] ${r.network}%-14s ${r.alg}%-9s ${c(0)}%13s ${c(1)}%13s ${c(2)}%13s ${c(3)}%13s"
      }

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
