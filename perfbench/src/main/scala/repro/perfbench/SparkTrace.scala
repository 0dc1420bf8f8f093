package repro.perfbench

import org.apache.spark.{SparkContext, Success => TaskSucceeded}
import org.apache.spark.scheduler._
import repro.analysis.ComparableRatio
import scala.collection.mutable

/** One finished task: executor run time, GC time and result size as the
  * task metrics report them, and whether the attempt failed.
  */
final case class TaskRecord(runMs: Long, gcMs: Long, resultBytes: Long, failed: Boolean)

/** One finished Spark job: its job group, submission and completion time
  * (epoch ms, the scheduler's clock) and its tasks.
  */
final case class JobRecord(id: Int, group: String, startMs: Long, endMs: Long,
                           tasks: Seq[TaskRecord])

/** The benchmark's `SparkListener`: records every job and task so a traced
  * pass can be summarised from outside the program. Events arrive on
  * Spark's listener bus thread, hence the locking.
  */
final class SparkTrace extends SparkListener {
  private val started = mutable.Map.empty[Int, (String, Long)]
  private val stageJob = mutable.Map.empty[Int, Int]
  private val tasks = mutable.Map.empty[Int, mutable.ArrayBuffer[TaskRecord]]
  private val ended = mutable.ArrayBuffer.empty[JobRecord]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty(SparkTrace.GroupKey)))
    started(e.jobId) = (group.getOrElse(""), e.time)
    tasks(e.jobId) = mutable.ArrayBuffer.empty
    e.stageIds.foreach(s => stageJob(s) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (job <- stageJob.get(e.stageId); buf <- tasks.get(job)) {
      val m = Option(e.taskMetrics)
      buf += TaskRecord(
        runMs = m.fold(0L)(_.executorRunTime),
        gcMs = m.fold(0L)(_.jvmGCTime),
        resultBytes = m.fold(0L)(_.resultSize),
        failed = e.reason != TaskSucceeded)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    for ((group, start) <- started.remove(e.jobId))
      ended += JobRecord(e.jobId, group, start, e.time,
                         tasks.remove(e.jobId).fold(Seq.empty[TaskRecord])(_.toSeq))
  }

  /** Returns the finished jobs of `group` delivered so far and forgets
    * every finished job, so jobs outside traced passes do not pile up.
    */
  def take(group: String): Seq[JobRecord] = synchronized {
    val mine = ended.filter(_.group == group).sortBy(_.id).toSeq
    ended.clear()
    mine
  }

  /** The jobs of `group`, which must all have finished. Runs a marker job
    * and waits for its end event: the bus delivers it after every event of
    * the jobs that finished before the marker was submitted.
    */
  def collect(sc: SparkContext, group: String, timeoutMs: Long = 10000L): Seq[JobRecord] = {
    sc.setJobGroup(SparkTrace.MarkerGroup, SparkTrace.MarkerGroup)
    try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
    val deadline = System.currentTimeMillis() + timeoutMs
    def delivered = synchronized(ended.exists(_.group == SparkTrace.MarkerGroup))
    while (!delivered && System.currentTimeMillis() < deadline) Thread.sleep(5)
    require(delivered, "listener bus did not deliver the marker job")
    take(group)
  }
}

object SparkTrace {
  /** Local property holding the job group (`SparkContext.setJobGroup`). */
  val GroupKey = "spark.jobGroup.id"
  private val MarkerGroup = "perfbench-marker"

  /** Spark-layer metrics of one pass that took `wallS` seconds on `slots`
    * task slots and ran `jobs`.
    */
  def summarise(jobs: Seq[JobRecord], wallS: Double, slots: Int): Map[String, Double] = {
    val ts = jobs.flatMap(_.tasks)
    val busyS = ts.map(_.runMs).sum / 1e3
    Map(
      "spark.jobs" -> jobs.size.toDouble,
      "spark.tasks" -> ts.size.toDouble,
      "spark.job_wall_s" -> jobs.map(j => j.endMs - j.startMs).sum / 1e3,
      "spark.task_busy_s" -> busyS,
      "spark.task_gc_s" -> ts.map(_.gcMs).sum / 1e3,
      "spark.slot_util" -> busyS / (wallS * slots),
      "spark.driver_s" -> math.max(0.0, wallS - coveredMs(jobs) / 1e3),
      "spark.task_skew" -> jobs.filter(_.tasks.nonEmpty).map(skew).maxOption.getOrElse(1.0),
      "spark.result_mb" -> ts.map(_.resultBytes).sum / (1024.0 * 1024.0),
      "spark.failed_tasks" -> ts.count(_.failed).toDouble,
    )
  }

  /** Length of the union of the jobs' [start, end] intervals: the time at
    * least one job was running.
    */
  def coveredMs(jobs: Seq[JobRecord]): Long = {
    var covered = 0L
    var reach = Long.MinValue
    for (j <- jobs.sortBy(_.startMs)) {
      val from = math.max(j.startMs, reach)
      if (j.endMs > from) covered += j.endMs - from
      reach = math.max(reach, j.endMs)
    }
    covered
  }

  /** Slowest task over the median task of one job; the median is floored at
    * 1 ms because sub-millisecond tasks report a run time of 0.
    */
  def skew(job: JobRecord): Double = {
    val times = job.tasks.map(_.runMs.toDouble)
    times.max / math.max(1.0, ComparableRatio.median(times))
  }
}
