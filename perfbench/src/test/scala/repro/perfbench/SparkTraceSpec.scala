package repro.perfbench

import org.apache.spark.{SparkConf, SparkContext, TaskKilled}
import org.apache.spark.scheduler._
import org.scalatest.funsuite.AnyFunSuite

class SparkTraceSpec extends AnyFunSuite {

  private def task(ms: Long, gc: Long = 0L, bytes: Long = 0L) = TaskRecord(ms, gc, bytes, failed = false)

  // Two overlapping jobs (0-400 ms, 300-600 ms) and one later job (800-900 ms)
  // in a 1 s pass on 4 slots.
  private val jobs = Seq(
    JobRecord(0, "g", 1000L, 1400L, Seq(task(100), task(100), task(400, gc = 20))),
    JobRecord(1, "g", 1300L, 1600L, Seq(task(50), task(60), task(70), task(300, bytes = 1L << 20))),
    JobRecord(2, "g", 1800L, 1900L, Seq(task(0), task(0), task(0))),
  )
  private val m = SparkTrace.summarise(jobs, wallS = 1.0, slots = 4)

  test("counts jobs, tasks, busy, GC and result size") {
    assert(m("spark.jobs") == 3)
    assert(m("spark.tasks") == 10)
    assert(m("spark.job_wall_s") == 0.8)
    assert(m("spark.task_busy_s") == 1.08)
    assert(m("spark.task_gc_s") == 0.02)
    assert(m("spark.result_mb") == 1.0)
    assert(m("spark.failed_tasks") == 0)
  }

  test("slot_util is task busy time over wall time times slots") {
    assert(math.abs(m("spark.slot_util") - 1.08 / 4.0) < 1e-12)
  }

  test("driver_s is wall time minus the union of job intervals") {
    assert(SparkTrace.coveredMs(jobs) == 700L)
    assert(math.abs(m("spark.driver_s") - 0.3) < 1e-12)
  }

  test("task_skew is the largest max/median task time over jobs, median floored at 1 ms") {
    // job 0: 400/100 = 4; job 1: 300/60 (lower middle of 50,60,70,300) = 5; job 2: 0/1 = 0.
    assert(m("spark.task_skew") == 5.0)
  }

  private def props(group: String) = {
    val p = new java.util.Properties
    p.setProperty(SparkTrace.GroupKey, group)
    p
  }

  test("the listener turns job and task events into records of their group") {
    val l = new SparkTrace
    l.onJobStart(SparkListenerJobStart(7, 5000L, Seq(new StageInfo(
      70, 0, "s", 1, Seq.empty, Seq.empty, "", resourceProfileId = 0)), props("a")))
    l.onJobStart(SparkListenerJobStart(8, 5100L, Seq.empty, props("b")))
    l.onTaskEnd(SparkListenerTaskEnd(70, 0, "ResultTask", TaskKilled("test"),
      new TaskInfo(1L, 0, 0, 0, 0L, "driver", "localhost", TaskLocality.PROCESS_LOCAL, false),
      null, null))
    l.onJobEnd(SparkListenerJobEnd(7, 5250L, JobSucceeded))
    l.onJobEnd(SparkListenerJobEnd(8, 5300L, JobSucceeded))
    assert(l.take("a") == Seq(JobRecord(7, "a", 5000L, 5250L,
                                        Seq(TaskRecord(0L, 0L, 0L, failed = true)))))
    assert(l.take("a").isEmpty)
    assert(l.take("b").isEmpty) // take forgets other groups' finished jobs
  }

  test("collect returns every job of a real pass") {
    val sc = new SparkContext(new SparkConf().setMaster("local[2]").setAppName("SparkTraceSpec")
      .set("spark.ui.enabled", "false"))
    try {
      val l = new SparkTrace
      sc.addSparkListener(l)
      sc.setJobGroup("g", "g")
      assert(sc.parallelize(1 to 8, 4).map(_ * 2).collect().sum == 72)
      assert(sc.parallelize(1 to 8, 2).count() == 8)
      sc.clearJobGroup()
      val jobs = l.collect(sc, "g")
      assert(jobs.map(_.tasks.size) == Seq(4, 2))
      assert(jobs.forall(j => j.endMs >= j.startMs && j.tasks.forall(!_.failed)))
    } finally sc.stop()
  }
}
