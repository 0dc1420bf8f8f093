package repro.spark

import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import repro.core.{Costs, RRCollection}
import repro.graphs.{LiveEdges, LocalGraph}

/** The shared influence-evaluation oracle of the paper's §5.2: a large,
  * seeded collection of θ RR sets is generated once per influence graph and
  * reused for every influence evaluation of every algorithm run, so
  * identical seed sets always get identical estimates.
  *
  * RR ids are cut into blocks of [[RRSetJob.BlockSize]]; block b is one
  * Spark task drawing its sets from the PRNG seeded with
  * `TrialRunner.mixSeed(seed, b)`. The tasks get only the graph's reverse
  * adjacency and live-edge thresholds (`LocalGraph.inEdges`), broadcast
  * once. The driver inverts the collected blocks in id order straight into
  * one index, without concatenating them, so the oracle is a function of
  * (graph, θ, seed) alone, not of the core count. Only the inverted index
  * is kept: a seed set S
  * intersects an RR set with probability Inf(S)/n, so
  * Inf(S) ≈ n · |RR sets covered by S| / θ.
  */
final class RRSetJob(spark: SparkSession, val g: LocalGraph, val theta: Long,
                     seed: Long) {
  require(theta >= 1 && theta <= RRCollection.MaxLength,
          s"theta=$theta outside [1, ${RRCollection.MaxLength}]")

  /** Inverted index vertex → RR-set ids in CSR form `(offsets, ids)`; the
    * ids of each vertex ascend.
    */
  val invertedIndex: (Array[Int], Array[Int]) =
    RRCollection.invert(g.n, RRSetJob.blocks(spark, g.inEdges, theta, seed))

  /** Estimated influence of each seed set, keyed by its sorted
    * comma-separated ids. Counts covered RR sets on the driver with a stamp
    * array, one pass over the index lists of each set's vertices.
    */
  def influenceOfSets(sets: Seq[Seq[Int]]): Map[String, Double] = {
    val (offsets, ids) = invertedIndex
    val stamp = new Array[Int](theta.toInt)
    var cur = 0
    sets.map(_.sorted).distinct.map { s =>
      cur += 1
      var covered = 0L
      s.foreach { v =>
        var i = offsets(v)
        while (i < offsets(v + 1)) {
          val id = ids(i)
          if (stamp(id) != cur) { stamp(id) = cur; covered += 1 }
          i += 1
        }
      }
      s.mkString(",") -> covered * g.n.toDouble / theta
    }.toMap
  }

  /** A no-op: the oracle holds no Spark storage, only driver arrays. It
    * remains because callers outside this library release oracles through it.
    */
  def unpersist(): Unit = ()
}

object RRSetJob {

  /** RR ids per block, and so per Spark task. */
  val BlockSize: Int = 4096

  /** Builds an oracle of `theta` RR sets on `g` from `seed`. */
  def apply(spark: SparkSession, g: LocalGraph, theta: Long, seed: Long): RRSetJob =
    new RRSetJob(spark, g, theta, seed)

  /** The RR sets of `theta` ids in blocks of [[BlockSize]], one Spark task
    * per block over one broadcast of `in`, collected in block order.
    */
  private def blocks(spark: SparkSession, in: LiveEdges, theta: Long,
                     seed: Long): Seq[RRCollection] = {
    val count = ((theta + BlockSize - 1) / BlockSize).toInt
    val bc = spark.sparkContext.broadcast(in)
    try {
      spark.sparkContext
        .parallelize(0 until count, count)
        .map { b =>
          val rng = new SplittableRandom(TrialRunner.mixSeed(seed, b.toLong))
          val size = math.min(BlockSize.toLong, theta - b.toLong * BlockSize).toInt
          RRCollection.generate(bc.value, size, rng, new Costs)
        }
        .collect().toSeq
    } finally bc.destroy()
  }
}
