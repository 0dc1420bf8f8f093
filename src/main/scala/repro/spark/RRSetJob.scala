package repro.spark

import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import repro.core.{Costs, GreedyResult, RRCollection}
import repro.graphs.{LiveEdges, LocalGraph}

/** The shared influence-evaluation oracle of the paper's §5.2: a large,
  * seeded collection of θ RR sets is generated once per influence graph and
  * reused for every influence evaluation of every algorithm run, so
  * identical seed sets always get identical estimates.
  *
  * RR ids are cut into blocks of [[RRSetJob.BlockSize]]; block b draws its
  * sets from the PRNG seeded with `TrialRunner.mixSeed(seed, b)`, and 16
  * blocks fill one page of the index. The blocks are the parts of one
  * [[RRCollection.invert]], drawn on the driver by a few threads that read
  * the graph's reverse adjacency and live-edge thresholds
  * (`LocalGraph.inEdges`) in place; no Spark job runs. The index is the
  * same on any thread count, so the oracle is a function of (graph, θ,
  * seed) alone, not of the thread or core count. Only the inverted index
  * is kept, 2 bytes per stored id: a seed set S intersects an RR set with
  * probability Inf(S)/n, so Inf(S) ≈ n · |RR sets covered by S| / θ.
  *
  * @param spark its default parallelism caps the number of threads
  */
final class RRSetJob(spark: SparkSession, val g: LocalGraph, val theta: Long,
                     seed: Long) {
  require(theta >= 1 && theta <= RRCollection.MaxLength,
          s"theta=$theta outside [1, ${RRCollection.MaxLength}]")

  private val threads = math.min(spark.sparkContext.defaultParallelism,
                                 Runtime.getRuntime.availableProcessors)

  /** Inverted index vertex → RR-set ids, in pages of
    * [[RRCollection.PageSize]] ids (16 blocks); the ids of each vertex ascend.
    */
  val index: RRCollection.Index = {
    val blocks = ((theta + RRSetJob.BlockSize - 1) / RRSetJob.BlockSize).toInt
    RRCollection.invert(g.n, blocks, threads)(RRSetJob.block(g.inEdges, theta, seed))
  }

  /** The index in CSR form `(vertexOffsets, ids)`: vertex v is in
    * `vertexOffsets(v + 1) - vertexOffsets(v)` RR sets, and `ids` holds the
    * low 16 bits of each stored id. With one page the offsets are the
    * index's own array.
    */
  def invertedIndex: (Array[Int], Array[Char]) = (index.vertexOffsets, index.ids)

  /** n · `covered` / θ, the influence of a seed set covering `covered` RR sets. */
  def spread(covered: Long): Double = covered * g.n.toDouble / theta

  /** Estimated influence of each seed set, keyed by [[GreedyResult.keyOf]].
    * A vertex outside [0, n) fails with an `IllegalArgumentException`.
    */
  def influenceOfSets(sets: Seq[Seq[Int]]): Map[String, Double] = influenceOfSets(sets, threads)

  /** [[influenceOfSets]] with the sets split into contiguous ranges over
    * min(`threads`, ⌈sets / [[RRSetJob.SetsPerWorker]]⌉) workers. Each
    * worker keys its sets and counts the RR sets each covers with its own
    * stamp array, one pass over the index lists of the set's vertices, page
    * by page, each id decoded as page·[[RRCollection.PageSize]] + low. Sets
    * with one key cover the same RR sets, so the map is the same whichever
    * of them it keeps.
    */
  private[spark] def influenceOfSets(sets: Seq[Seq[Int]], threads: Int): Map[String, Double] = {
    sets.foreach(_.foreach(v => require(v >= 0 && v < g.n, s"vertex $v outside [0, ${g.n})")))
    val all = sets.toIndexedSeq
    val offsets = index.offsets
    val ids = index.ids
    val pages = index.pages
    val keys = new Array[String](all.size)
    val values = new Array[Double](all.size)
    val per = RRSetJob.SetsPerWorker
    val workers = math.min(threads, (all.size + per - 1) / per)
    RRCollection.run(workers, workers) { w =>
      val stamp = new Array[Int](theta.toInt)
      var i = (w.toLong * all.size / workers).toInt
      val end = ((w + 1L) * all.size / workers).toInt
      while (i < end) {
        val cur = i + 1
        var covered = 0L
        all(i).foreach { v =>
          var p = 0
          while (p < pages) {
            val base = p * RRCollection.PageSize
            var j = offsets(v * pages + p)
            while (j < offsets(v * pages + p + 1)) {
              val id = base + ids(j)
              if (stamp(id) != cur) { stamp(id) = cur; covered += 1 }
              j += 1
            }
            p += 1
          }
        }
        keys(i) = GreedyResult.keyOf(all(i))
        values(i) = spread(covered)
        i += 1
      }
    }
    keys.iterator.zip(values.iterator).toMap
  }

  /** A no-op: the oracle holds no Spark storage, only driver arrays. It
    * remains because callers outside this library release oracles through it.
    */
  def unpersist(): Unit = ()
}

object RRSetJob {

  /** RR ids per block, each block drawn from its own seeded PRNG. */
  val BlockSize: Int = 4096

  /** Fewest seed sets per evaluation worker: starting a thread costs
    * about as much as scoring this many sets of four vertices.
    */
  private[spark] val SetsPerWorker: Int = 64

  /** Builds an oracle of `theta` RR sets on `g` from `seed`. */
  def apply(spark: SparkSession, g: LocalGraph, theta: Long, seed: Long): RRSetJob =
    new RRSetJob(spark, g, theta, seed)

  /** Block `b` of `theta` RR sets over `in`: the next (at most)
    * [[BlockSize]] sets, drawn from the PRNG seeded with
    * `TrialRunner.mixSeed(seed, b)`.
    */
  private[spark] def block(in: LiveEdges, theta: Long, seed: Long)(b: Int): RRCollection = {
    val rng = new SplittableRandom(TrialRunner.mixSeed(seed, b.toLong))
    val size = math.min(BlockSize.toLong, theta - b.toLong * BlockSize).toInt
    RRCollection.generate(in, size, rng, new Costs)
  }
}
