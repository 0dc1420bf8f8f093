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
  * place; no Spark job runs. The same threads count each block's members,
  * and after one serial [[RRCollection.place]] scatter each block's ids
  * into one index in id order, without concatenating the blocks, so the
  * oracle is a function of (graph, θ, seed) alone, not of the thread or
  * core count. Only the inverted index is kept: a seed set S intersects an
  * RR set with probability Inf(S)/n, so Inf(S) ≈ n · |RR sets covered by S| / θ.
  *
  * @param spark its default parallelism caps the number of threads
  */
final class RRSetJob(spark: SparkSession, val g: LocalGraph, val theta: Long,
                     seed: Long) {
  require(theta >= 1 && theta <= RRCollection.MaxLength,
          s"theta=$theta outside [1, ${RRCollection.MaxLength}]")

  private val threads = math.min(spark.sparkContext.defaultParallelism,
                                 Runtime.getRuntime.availableProcessors)

  /** Inverted index vertex → RR-set ids in CSR form `(offsets, ids)`; the
    * ids of each vertex ascend.
    */
  val invertedIndex: (Array[Int], Array[Int]) = RRSetJob.index(g.inEdges, theta, seed, threads)

  /** Estimated influence of each seed set, keyed by [[GreedyResult.keyOf]].
    * A vertex outside [0, n) fails with an `IllegalArgumentException`.
    */
  def influenceOfSets(sets: Seq[Seq[Int]]): Map[String, Double] = influenceOfSets(sets, threads)

  /** [[influenceOfSets]] with the sets split into contiguous ranges over
    * min(`threads`, ⌈sets / [[RRSetJob.SetsPerWorker]]⌉) workers. Each
    * worker keys its sets and counts the RR sets each covers with its own
    * stamp array, one pass over the index lists of the set's vertices. Sets
    * with one key cover the same RR sets, so the map is the same whichever
    * of them it keeps.
    */
  private[spark] def influenceOfSets(sets: Seq[Seq[Int]], threads: Int): Map[String, Double] = {
    sets.foreach(_.foreach(v => require(v >= 0 && v < g.n, s"vertex $v outside [0, ${g.n})")))
    val all = sets.toIndexedSeq
    val (offsets, ids) = invertedIndex
    val keys = new Array[String](all.size)
    val values = new Array[Double](all.size)
    val per = RRSetJob.SetsPerWorker
    val workers = math.min(threads, (all.size + per - 1) / per)
    RRSetJob.run(workers, workers) { w =>
      val stamp = new Array[Int](theta.toInt)
      var i = (w.toLong * all.size / workers).toInt
      val end = ((w + 1L) * all.size / workers).toInt
      while (i < end) {
        val cur = i + 1
        var covered = 0L
        all(i).foreach { v =>
          var j = offsets(v)
          while (j < offsets(v + 1)) {
            val id = ids(j)
            if (stamp(id) != cur) { stamp(id) = cur; covered += 1 }
            j += 1
          }
        }
        keys(i) = GreedyResult.keyOf(all(i))
        values(i) = covered * g.n.toDouble / theta
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

  /** Name prefix of the worker threads, `rr-oracle-<i>`. */
  private[spark] val ThreadName: String = "rr-oracle"

  /** Builds an oracle of `theta` RR sets on `g` from `seed`. */
  def apply(spark: SparkSession, g: LocalGraph, theta: Long, seed: Long): RRSetJob =
    new RRSetJob(spark, g, theta, seed)

  /** The inverted index of `theta` RR sets over `in` in blocks of
    * [[BlockSize]], built on up to `threads` workers: each draws and
    * [[RRCollection.count counts]] whole blocks, the caller
    * [[RRCollection.place places]] them, then each scatters a contiguous
    * range of blocks, so that within a vertex's ids the workers write apart
    * rather than into shared cache lines. Equal to [[RRCollection.invert]]
    * of the blocks in block order.
    */
  private[spark] def index(in: LiveEdges, theta: Long, seed: Long,
                           threads: Int): (Array[Int], Array[Int]) = {
    val count = ((theta + BlockSize - 1) / BlockSize).toInt
    val blocks = new Array[RRCollection](count)
    val counts = new Array[Array[Int]](count)
    run(count, threads) { b =>
      val rng = new SplittableRandom(TrialRunner.mixSeed(seed, b.toLong))
      val size = math.min(BlockSize.toLong, theta - b.toLong * BlockSize).toInt
      blocks(b) = RRCollection.generate(in, size, rng, new Costs)
      counts(b) = RRCollection.count(blocks(b))
    }
    val (offsets, setIds) = RRCollection.place(in.n, blocks.toSeq, counts.toSeq)
    val workers = math.min(count, threads)
    run(workers, workers) { w =>
      var b = (w.toLong * count / workers).toInt
      while (b < (w + 1L) * count / workers) {
        RRCollection.scatter(blocks(b), b * BlockSize, counts(b), setIds)
        b += 1
      }
    }
    (offsets, setIds)
  }

  /** Runs `task` on 0 until `count` over min(`count`, `threads`) workers:
    * the caller's thread and daemon `rr-oracle-<i>` threads, each taking
    * the next task until none is left, a task has failed or the caller is
    * interrupted. Once every thread has ended, the first failure is
    * rethrown as it was thrown, so a run leaves no thread behind.
    */
  private def run(count: Int, threads: Int)(task: Int => Unit): Unit = {
    val next = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]
    val work: Runnable = () => {
      var i = next.getAndIncrement()
      while (i < count && failure.get == null && !Thread.currentThread.isInterrupted) {
        try task(i)
        catch { case e: Throwable => failure.compareAndSet(null, e) }
        i = next.getAndIncrement()
      }
    }
    val helpers = (1 until math.min(count, threads)).map { i =>
      val t = new Thread(work, s"$ThreadName-$i")
      t.setDaemon(true)
      t.start()
      t
    }
    work.run()
    // An interrupted caller stops the threads from taking further tasks.
    try helpers.foreach(_.join())
    catch { case e: InterruptedException => failure.compareAndSet(null, e); throw e }
    if (failure.get != null) throw failure.get
  }
}
