package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.analysis.ComparableRatio.median
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Benchmark entry point: runs one workload in a closed loop for a fixed time on
  * Spark `local[4]` and prints its metrics, the last stdout line being one
  * JSON object.
  *
  * {{{
  * Main --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--out dir] [--commit sha]
  * }}}
  *
  * With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
  * alternates plain and traced passes and reports per-layer metrics plus
  * the tracing overhead.
  */
object Main {
  val Slots = 4
  val SetupReps = 3
  val WarmupPasses = 3
  val MinPasses = 3
  val MinTracedPasses = 2

  /** Per-layer metrics that every workload's traced run measures; these go
    * into the JSON line. The rest are printed and written to the result file.
    */
  val SharedLayerMetrics: Seq[String] = Seq(
    "graphs.build_s", "spark.jobs", "spark.tasks", "spark.job_wall_s", "spark.task_busy_s",
    "spark.slot_util", "spark.driver_s", "spark.task_skew", "spark.result_mb",
    "trace.wall_s", "trace.overhead_s")

  def unit(metric: String): String =
    if (metric.contains("ns_per_")) "ns"
    else if (metric.endsWith("_per_s")) "1/s"
    else if (metric.endsWith("_s")) "s"
    else if (metric.endsWith("_mb")) "MB"
    else if (metric.endsWith("slot_util") || metric.endsWith("task_skew") ||
             metric == "error_rate") "ratio"
    else "count"

  private def fmt(s: Double): String = f"$s%.3f"

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.get("workload").flatMap(Workloads.byName).getOrElse {
      Console.err.println(s"--workload must be one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts.get("seed").map(_.toLong).getOrElse(workload.defaultSeed)
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val traced = opts.getOrElse("trace", "0") == "1"
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime

    val spark = SparkSession.builder
      .master(s"local[$Slots]")
      .appName(s"perfbench-${workload.name}")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      // Status-store retention sized for one pass, so the driver heap does
      // not grow with the number of passes a run happens to fit in.
      .config("spark.ui.retainedJobs", 200)
      .config("spark.ui.retainedStages", 200)
      .config("spark.ui.retainedTasks", 2000)
      .config("spark.sql.ui.retainedExecutions", 20)
      .getOrCreate()
    val sc = spark.sparkContext
    val sessionS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val phases = ArrayBuffer("session" -> sessionS)
    def phaseEnd(name: String): Unit =
      phases += name -> ((System.currentTimeMillis() - jvmStartMs) / 1e3 - phases.map(_._2).sum)
    val listener = new SparkTrace
    if (traced) sc.addSparkListener(listener)

    var attempted = 0L
    var failed = 0L
    var fingerprint = Option.empty[String]
    def record(o: Outcome): Unit = {
      attempted += o.attempted
      val mismatch = o.fingerprint.nonEmpty && fingerprint.exists(_ != o.fingerprint)
      if (o.fingerprint.nonEmpty && fingerprint.isEmpty) fingerprint = Some(o.fingerprint)
      if (mismatch) Console.err.println(s"[perfbench] pass output differs from the first pass")
      failed += (if (mismatch) o.attempted else o.failed)
    }
    def timed[A](f: => A): (Double, A) = {
      val t0 = System.nanoTime()
      val r = f
      ((System.nanoTime() - t0) / 1e9, r)
    }

    val setups = Seq.fill(SetupReps) {
      val t = new Trace
      (timed(workload.setup(spark, seed, t))._1, t.toMap)
    }
    val setupS = sessionS + median(setups.map(_._1))
    phaseEnd("setup")

    // Warm-up: one traced pass, whose outputs the final checks read, then
    // plain passes; none is timed.
    record(workload.tracedPass(spark, new Trace))
    for (_ <- 2 to WarmupPasses) record(workload.pass(spark))
    val plain = ArrayBuffer.empty[Double]
    val tracedWall = ArrayBuffer.empty[Double]
    val layers = ArrayBuffer.empty[Map[String, Double]]
    phaseEnd("warmup")
    val loopStart = System.nanoTime()
    // A pass starts only if at least half of it fits in the remaining time.
    var lastPass = 0.0
    def more = (System.nanoTime() - loopStart) / 1e9 + lastPass / 2 < seconds ||
      plain.size < MinPasses || (traced && tracedWall.size < MinTracedPasses)
    var i = 0
    while (more) {
      if (traced && i % 2 == 1) {
        val group = s"perfbench-pass-$i"
        sc.setJobGroup(group, group)
        val t = new Trace
        val (s, o) = timed(workload.tracedPass(spark, t))
        sc.clearJobGroup()
        val jobs = listener.collect(sc, group)
        record(o)
        tracedWall += s
        lastPass = s
        layers += t.toMap ++ SparkTrace.summarise(jobs, s, Slots)
      } else {
        val (s, o) = timed(workload.pass(spark))
        record(o)
        plain += s
        lastPass = s
      }
      i += 1
    }
    phaseEnd("measure")
    val checkTrace = new Trace
    record(workload.check(spark, checkTrace))
    phaseEnd("check")

    // Full GCs a little apart, so Spark's ContextCleaner can drop the blocks
    // of broadcasts and RDDs that the first GC found unreachable.
    for (_ <- 1 to 3) { System.gc(); Thread.sleep(300) }
    val heap = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    workload.close()
    spark.stop()
    phaseEnd("stop")

    def medians(maps: Seq[Map[String, Double]]): Map[String, Double] =
      maps.flatMap(_.keys).distinct.map(k => k -> median(maps.map(_.getOrElse(k, 0.0)))).toMap
    val endToEnd = Map("wall_s" -> median(plain.toSeq), "setup_s" -> setupS, "heap_mb" -> heap)
    val perLayer =
      if (!traced) Map.empty[String, Double]
      else medians(setups.map(_._2)) ++ medians(layers.toSeq) ++ checkTrace.toMap ++ Map(
        "trace.wall_s" -> median(tracedWall.toSeq),
        "trace.overhead_s" -> (median(tracedWall.toSeq) - median(plain.toSeq)))
    val errorRate = failed.toDouble / attempted
    val all = endToEnd ++ perLayer + ("error_rate" -> errorRate)
    val reported = if (traced) SharedLayerMetrics else Seq("wall_s", "setup_s", "heap_mb")

    println(s"[perfbench] workload=${workload.name} seed=$seed master=local[$Slots] " +
            s"attempted=$attempted failed=$failed")
    println(s"[perfbench] phases (s): ${phases.map { case (k, v) => s"$k=${fmt(v)}" }.mkString(" ")}")
    println(s"[perfbench] set-ups (s): ${setups.map(_._1).map(fmt).mkString(" ")}")
    println(s"[perfbench] passes (s): ${plain.map(fmt).mkString(" ")}")
    if (traced) println(s"[perfbench] traced passes (s): ${tracedWall.map(fmt).mkString(" ")}")
    for ((k, v) <- all.toSeq.sortBy(_._1)) println(f"[perfbench] $k%-32s $v%.6g ${unit(k)}")
    val result = Json.obj(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> Json.obj(reported.map(k =>
        k -> Json.obj("value" -> all.getOrElse(k, sys.error(s"metric $k not measured")),
                      "unit" -> unit(k))): _*))

    for (dir <- opts.get("out")) {
      val base = Paths.get(dir)
      Files.createDirectories(base)
      val stem = s"${workload.name}.seed$seed.trace${if (traced) 1 else 0}"
      val runtime = ManagementFactory.getRuntimeMXBean
      val manifest = Json.obj(
        "commit" -> opts.getOrElse("commit", "unknown"),
        "workload" -> workload.name,
        "seed" -> seed,
        "plan" -> Json.arr(workload.plan.map(Json.str): _*),
        "master" -> s"local[$Slots]",
        "nproc" -> Runtime.getRuntime.availableProcessors,
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "xmx" -> runtime.getInputArguments.asScala.filter(_.startsWith("-Xmx")).mkString(" "),
        "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
        "spark" -> spark.version,
        "seconds" -> seconds,
        "trace" -> traced,
        "setup_reps" -> SetupReps,
        "warmup_passes" -> WarmupPasses,
        "passes" -> plain.size,
        "traced_passes" -> tracedWall.size)
      Files.writeString(base.resolve(s"$stem.json"), Json.obj(
        "result" -> result,
        "all_metrics" -> Json.obj(all.toSeq.sortBy(_._1).map { case (k, v) =>
          k -> Json.obj("value" -> v, "unit" -> unit(k)) }: _*)).text + "\n")
      Files.writeString(base.resolve(s"$stem.manifest.json"), manifest.text + "\n")
    }
    println(result.text)
    sys.exit(0)
  }
}

/** Minimal JSON writer for the result line, result files and manifests. */
final case class Json(text: String)

object Json {
  def str(s: String): Json = Json("\"" + s.flatMap {
    case '"' => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  } + "\"")

  private def value(v: Any): Json = v match {
    case j: Json => j
    case s: String => str(s)
    case b: Boolean => Json(b.toString)
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, "JSON has no NaN or infinity")
      Json(d.toString)
    case n: Int => Json(n.toString)
    case n: Long => Json(n.toString)
    case other => sys.error(s"no JSON form for $other")
  }

  def obj(fields: (String, Any)*): Json =
    Json(fields.map { case (k, v) => s"${str(k).text}: ${value(v).text}" }.mkString("{", ", ", "}"))

  def arr(items: Json*): Json = Json(items.map(_.text).mkString("[", ", ", "]"))
}
