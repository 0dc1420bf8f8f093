package repro.exp

import org.apache.spark.sql.SparkSession
import repro.analysis.SeedSetStats
import repro.core.GreedyResult
import repro.graphs.LocalGraph
import repro.spark.{Alg, RRSetJob, Trial, TrialRow, TrialRunner}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** The central experimental machinery of the paper's §4: run an algorithm T
  * times for every sample number on a powers-of-two grid, evaluate every
  * obtained seed set with the shared RR-set oracle, and summarise the
  * resulting seed-set and influence distributions. Tables 5, 6, 7 and 9 are
  * all derived from sweeps.
  */
object Sweep {

  /** Summary of one (algorithm, sample number) grid point over T trials. */
  final case class Point(
      alg: String,
      sampleNumber: Long,
      entropy: Double,
      influences: Seq[Double],
      meanInfluence: Double,
      meanSampleSize: Double,
      meanVertexCost: Double,
      meanEdgeCost: Double,
  )

  /** Full sweep over the three algorithms on one instance. */
  final case class Result(
      points: Seq[Point],
      referenceKey: String,
      referenceInfluence: Double,
  ) {
    def curve(alg: Alg): Seq[Point] =
      points.filter(_.alg == alg.name).sortBy(_.sampleNumber)
  }

  /** Per-algorithm sample-number grids plus trial count. A grid maximum of
    * 0 disables the algorithm on this instance (the paper's "-" cells for
    * runs that "took over weeks").
    */
  final case class Config(
      trials: Int,
      oneshotMax: Long,
      snapshotMax: Long,
      risMax: Long,
      risMin: Long = 1L,
      refTheta: Long = 1L << 17,
      baseSeed: Long = 20200614L,
  )

  /** `x` as an Int; fails, naming the value, instead of narrowing. */
  private def toInt(what: String, x: Long): Int = {
    require(x <= Int.MaxValue, s"$what=$x exceeds Int.MaxValue")
    x.toInt
  }

  /** 1, 2, 4, …, max (inclusive if max is a power of two), at most 2⁶². */
  def powersOfTwo(max: Long, min: Long = 1L): Seq[Long] =
    (0 to 62).map(1L << _).takeWhile(_ <= max).filter(_ >= min)

  /** The reproduction's stand-in for the paper's "Exact Greedy" limit
    * object: the seed set, ids ascending, of one RIS trial run with
    * sample number `refTheta` on the PRNG seeded with `seed`.
    */
  def referenceSeedSet(g: LocalGraph, k: Int, refTheta: Long, seed: Long): Seq[Int] =
    TrialRunner.run(g, Trial(Alg.RisAlg, toInt("refTheta", refTheta), k, seed, 0)).seed_set

  /** Runs the full sweep for seed size `k` on influence graph `g`, using
    * `oracle` for influence evaluation; it must be built on `g` (see
    * [[LocalGraph.sameAs]]). All trials of the sweep run as one Spark job
    * (see [[TrialRunner.runTrials]]), while the driver computes the
    * reference seed set.
    */
  def run(spark: SparkSession, g: LocalGraph, oracle: RRSetJob, k: Int,
          cfg: Config): Result = runWithRows(spark, g, oracle, k, cfg)._1

  /** [[run]], also returning the trial rows of every grid point in grid
    * order, each in trial order.
    */
  private[exp] def runWithRows(spark: SparkSession, g: LocalGraph, oracle: RRSetJob,
                               k: Int, cfg: Config): (Result, Seq[(Alg, Int, Seq[TrialRow])]) = {
    require(oracle.g.sameAs(g), "oracle must be built on the same influence graph")
    require(cfg.trials >= 1, s"trials=${cfg.trials} must be >= 1")
    // Narrowed up front, so an oversized grid fails before any trial runs.
    val refTheta = toInt("refTheta", cfg.refTheta)
    val grid: Seq[(Alg, Int)] = for {
      (alg, sampleNumbers) <- Seq(
        Alg.OneshotAlg -> powersOfTwo(cfg.oneshotMax),
        Alg.SnapshotAlg -> powersOfTwo(cfg.snapshotMax),
        Alg.RisAlg -> powersOfTwo(cfg.risMax, cfg.risMin))
      s <- sampleNumbers
    } yield alg -> toInt(s"${alg.name} sample number", s)
    val trials = grid.toIndexedSeq.flatMap { case (alg, s) =>
      TrialRunner.pointTrials(alg, s, k,
        TrialRunner.mixSeed(cfg.baseSeed, (alg.name.hashCode.toLong << 32) ^ s), cfg.trials)
    }
    val ref = Future(referenceSeedSet(g, k, refTheta, cfg.baseSeed + 777))(ExecutionContext.global)
    val allRows = TrialRunner.runTrials(spark, g, trials)
    val refSet = Await.result(ref, Duration.Inf)
    val raw = grid.zip(allRows.grouped(cfg.trials).toSeq).map { case ((alg, s), rows) => (alg, s, rows) }
    val refKey = GreedyResult.keyOf(refSet)
    val allSets: Seq[Seq[Int]] = (allRows.map(_.seed_set) :+ refSet).distinct
    val infByKey = oracle.influenceOfSets(allSets)
    val points = raw.map { case (alg, s, rows) =>
      val keys = rows.map(_.seed_key)
      val infs = keys.map(infByKey)
      Point(
        alg = alg.name,
        sampleNumber = s,
        entropy = SeedSetStats.entropyOfKeys(keys),
        influences = infs,
        meanInfluence = infs.sum / infs.size,
        meanSampleSize = TrialRow.mean(rows)(_.sample_size),
        meanVertexCost = TrialRow.mean(rows)(_.vertex_cost),
        meanEdgeCost = TrialRow.mean(rows)(_.edge_cost),
      )
    }
    (Result(points, refKey, infByKey(refKey)), raw)
  }
}
