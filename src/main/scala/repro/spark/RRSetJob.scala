package repro.spark

import java.util.SplittableRandom
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import org.apache.spark.sql.SparkSession
import repro.core.{Costs, GreedyResult, RRCollection}
import repro.graphs.{LiveEdges, LocalGraph}

/** The shared influence-evaluation oracle of the paper's §5.2: a large,
  * seeded collection of θ RR sets is generated once per influence graph and
  * reused for every influence evaluation of every algorithm run, so
  * identical seed sets always get identical estimates.
  *
  * RR ids are cut into blocks of [[RRSetJob.BlockSize]]; block b draws its
  * sets from the PRNG seeded with `TrialRunner.mixSeed(seed, b)`. The
  * blocks are drawn on the driver, on a few threads that read the graph's
  * reverse adjacency and live-edge thresholds (`LocalGraph.inEdges`) in
  * place; no Spark job runs. The blocks are inverted in id order straight
  * into one index, without concatenating them, so the oracle is a function
  * of (graph, θ, seed) alone, not of the thread or core count. Only the
  * inverted index is kept: a seed set S intersects an RR set with
  * probability Inf(S)/n, so Inf(S) ≈ n · |RR sets covered by S| / θ.
  *
  * @param spark its default parallelism caps the number of drawing threads
  */
final class RRSetJob(spark: SparkSession, val g: LocalGraph, val theta: Long,
                     seed: Long) {
  require(theta >= 1 && theta <= RRCollection.MaxLength,
          s"theta=$theta outside [1, ${RRCollection.MaxLength}]")

  /** Inverted index vertex → RR-set ids in CSR form `(offsets, ids)`; the
    * ids of each vertex ascend.
    */
  val invertedIndex: (Array[Int], Array[Int]) = {
    val threads = math.min(spark.sparkContext.defaultParallelism,
                           Runtime.getRuntime.availableProcessors)
    RRCollection.invert(g.n, RRSetJob.blocks(g.inEdges, theta, seed, threads))
  }

  /** Estimated influence of each seed set, keyed by [[GreedyResult.keyOf]].
    * Counts covered RR sets on the driver with a stamp array, one pass over
    * the index lists of each set's vertices.
    */
  def influenceOfSets(sets: Seq[Seq[Int]]): Map[String, Double] = {
    val (offsets, ids) = invertedIndex
    val stamp = new Array[Int](theta.toInt)
    var cur = 0
    sets.map(s => GreedyResult.keyOf(s) -> s).toMap.map { case (key, s) =>
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
      key -> covered * g.n.toDouble / theta
    }
  }

  /** A no-op: the oracle holds no Spark storage, only driver arrays. It
    * remains because callers outside this library release oracles through it.
    */
  def unpersist(): Unit = ()
}

object RRSetJob {

  /** RR ids per block, each block drawn from its own seeded PRNG. */
  val BlockSize: Int = 4096

  /** Name prefix of the drawing threads, `rr-oracle-<i>`. */
  private[spark] val ThreadName: String = "rr-oracle"

  /** Builds an oracle of `theta` RR sets on `g` from `seed`. */
  def apply(spark: SparkSession, g: LocalGraph, theta: Long, seed: Long): RRSetJob =
    new RRSetJob(spark, g, theta, seed)

  /** The RR sets of `theta` ids over `in` in blocks of [[BlockSize]], in
    * block order, drawn on min(blocks, `threads`) daemon threads. Each
    * thread takes the next undrawn block until none is left or a block has
    * failed. Once every thread has ended, the first failure is rethrown as
    * it was thrown, so a build leaves no thread behind.
    */
  private[spark] def blocks(in: LiveEdges, theta: Long, seed: Long,
                            threads: Int): Seq[RRCollection] = {
    val count = ((theta + BlockSize - 1) / BlockSize).toInt
    val out = new Array[RRCollection](count)
    val next = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]
    val workers = (0 until math.min(count, threads)).map { i =>
      val t = new Thread(() => {
        var b = next.getAndIncrement()
        while (b < count && failure.get == null) {
          try {
            val rng = new SplittableRandom(TrialRunner.mixSeed(seed, b.toLong))
            val size = math.min(BlockSize.toLong, theta - b.toLong * BlockSize).toInt
            out(b) = RRCollection.generate(in, size, rng, new Costs)
          } catch { case e: Throwable => failure.compareAndSet(null, e) }
          b = next.getAndIncrement()
        }
      }, s"$ThreadName-$i")
      t.setDaemon(true)
      t.start()
      t
    }
    // An interrupted caller stops the threads from taking further blocks.
    try workers.foreach(_.join())
    catch { case e: InterruptedException => failure.compareAndSet(null, e); throw e }
    if (failure.get != null) throw failure.get
    out.toSeq
  }
}
