package repro.spark

import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import repro.core.{Greedy, GreedyResult, InfluenceEstimator, Oneshot, Ris, Snapshot}
import repro.graphs.LocalGraph

/** Which of the paper's three approaches a run uses, plus its estimator
  * factory and cost estimate. `name` values match the paper's table labels.
  */
sealed trait Alg extends Serializable {
  def name: String
  def make(g: LocalGraph, sampleNumber: Int): InfluenceEstimator

  /** Relative cost of one greedy run, after the paper's Table 1 bounds:
    * β·k·m for Oneshot, τ·m for Snapshot, θ for RIS. It only orders and
    * packs trials, so its units need not agree with the counted costs.
    */
  def cost(g: LocalGraph, sampleNumber: Int, k: Int): Double
}

object Alg {
  case object OneshotAlg extends Alg {
    val name = "Oneshot"
    def make(g: LocalGraph, s: Int): InfluenceEstimator = new Oneshot(g, s)
    def cost(g: LocalGraph, s: Int, k: Int): Double = s.toDouble * k * g.m
  }
  case object SnapshotAlg extends Alg {
    val name = "Snapshot"
    def make(g: LocalGraph, s: Int): InfluenceEstimator = new Snapshot(g, s)
    def cost(g: LocalGraph, s: Int, k: Int): Double = s.toDouble * g.m
  }
  case object RisAlg extends Alg {
    val name = "RIS"
    def make(g: LocalGraph, s: Int): InfluenceEstimator = new Ris(g, s)
    def cost(g: LocalGraph, s: Int, k: Int): Double = s.toDouble
  }
  val all: Seq[Alg] = Seq(OneshotAlg, SnapshotAlg, RisAlg)
}

/** One greedy run: trial `trial` of the grid point (`alg`, `sampleNumber`,
  * `k`), run on the PRNG seeded with `seed` (see [[TrialRunner.pointTrials]]).
  */
final case class Trial(alg: Alg, sampleNumber: Int, k: Int, seed: Long, trial: Int)

/** One completed greedy run (a "trial" in the paper's §4 methodology). */
final case class TrialRow(
    trial: Int,
    alg: String,
    sample_number: Long,
    k: Int,
    seed_set: Seq[Int],
    vertex_cost: Long,
    edge_cost: Long,
    sample_size: Long,
) {
  /** The seed set's key, [[GreedyResult.keyOf]]; derived, not shipped. */
  def seed_key: String = GreedyResult.keyOf(seed_set)
}

object TrialRow {
  /** The mean of `f` over `rows`, summed in row order. */
  def mean(rows: Seq[TrialRow])(f: TrialRow => Long): Double = rows.map(f(_).toDouble).sum / rows.size
}

/** Distributed trial runner: the paper constructs empirical seed-set and
  * influence distributions from T independent algorithm runs; here any set
  * of runs, over one or many grid points, is one RDD job over one broadcast
  * graph, with one PRNG stream per trial. Which task runs a trial affects
  * only scheduling, never a row.
  */
object TrialRunner {

  /** A job has at most this many slices per unit of default parallelism. */
  private val SlicesPerCore = 4

  /** SplitMix64 finaliser — decorrelates per-trial PRNG seeds. */
  def mixSeed(base: Long, trial: Long): Long = {
    var z = base + trial * 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Longest-processing-time packing: item indices by decreasing cost
    * (ties in index order), each into the currently lightest of `slices`
    * slices (ties to the lower slice). Each slice lists its items in the
    * order they were packed.
    */
  private[spark] def pack(costs: Array[Double], slices: Int): Array[Array[Int]] = {
    val load = new Array[Double](slices)
    val packed = Array.fill(slices)(Array.newBuilder[Int])
    for (i <- costs.indices.sortBy(i => -costs(i))) {
      var lightest = 0
      var b = 1
      while (b < slices) { if (load(b) < load(lightest)) lightest = b; b += 1 }
      load(lightest) += costs(i)
      packed(lightest) += i
    }
    packed.map(_.result())
  }

  /** Runs `trials` as one job over one broadcast of `g`, packed by
    * [[Alg.cost]] into at most `4 × defaultParallelism` slices, and returns
    * their rows in the order of `trials`. No trials start no job.
    */
  def runTrials(spark: SparkSession, g: LocalGraph,
                trials: IndexedSeq[Trial]): Seq[TrialRow] =
    if (trials.isEmpty) Nil
    else {
      val sc = spark.sparkContext
      val slices = pack(trials.map(t => t.alg.cost(g, t.sampleNumber, t.k)).toArray,
                        math.min(trials.size, SlicesPerCore * sc.defaultParallelism))
      val bc = sc.broadcast(g)
      val done = try {
        sc.parallelize(slices.toSeq.map(_.map(trials)), slices.length)
          .flatMap(_.iterator.map(run(bc.value, _)))
          .collect()
      } finally bc.destroy()
      // `collect` keeps slice order and the order within each slice.
      val rows = new Array[TrialRow](trials.size)
      slices.flatten.zip(done).foreach { case (i, row) => rows(i) = row }
      rows.toSeq
    }

  /** The greedy run (paper Algorithm 3.1) of `t` on `g`, on its own PRNG. */
  def run(g: LocalGraph, t: Trial): TrialRow = {
    val r = Greedy.run(g.n, t.k, t.alg.make(g, t.sampleNumber), new SplittableRandom(t.seed))
    TrialRow(t.trial, t.alg.name, t.sampleNumber.toLong, t.k, r.seeds.sorted.toSeq,
             r.vertexCost, r.edgeCost, r.sampleSize)
  }

  /** The `trials` runs of the grid point (`alg`, `sampleNumber`, `k`):
    * trial t runs on the PRNG seeded with `mixSeed(pointSeed, t)`.
    */
  def pointTrials(alg: Alg, sampleNumber: Int, k: Int, pointSeed: Long,
                  trials: Int): IndexedSeq[Trial] = {
    require(trials >= 1, s"trials=$trials must be >= 1")
    (0 until trials).map(t => Trial(alg, sampleNumber, k, mixSeed(pointSeed, t.toLong), t))
  }

  /** Runs `trials` independent greedy runs of `alg` with the given sample
    * number and seed size, and returns one [[TrialRow]] per trial in trial
    * order: the single-grid-point case of [[runTrials]].
    */
  def runCollect(spark: SparkSession, g: LocalGraph, alg: Alg, sampleNumber: Int, k: Int,
                 trials: Int, baseSeed: Long): Seq[TrialRow] =
    runTrials(spark, g, pointTrials(alg, sampleNumber, k, baseSeed, trials))
}
