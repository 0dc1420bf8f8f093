package repro

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test that runs Spark: one local-mode SparkSession for the
  * whole run, and `jobsStartedBy` to count the Spark jobs a block
  * starts.
  *
  * The forked test JVM's heap is `-Xmx$SPARK_DRIVER_MEM`, set by the test
  * JVM settings in build.sbt; it is 48g when the variable is unset.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** `f`'s result and the number of Spark jobs it started. Marker jobs
    * before and after flush the listener queue, whose events arrive in order.
    */
  def jobsStartedBy[A](f: => A): (A, Int) = {
    val sc = spark.sparkContext
    val groups = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        groups.add(String.valueOf(e.properties.getProperty("spark.jobGroup.id")))
    }
    def marker(id: String): Unit = {
      sc.setJobGroup(id, "marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (!groups.contains(id) && System.nanoTime() < deadline) Thread.sleep(10)
      assert(groups.contains(id), s"marker job $id not seen")
    }
    sc.addSparkListener(listener)
    try {
      marker("sweep-before")
      groups.clear()
      val a = f
      marker("sweep-after")
      (a, groups.toArray.count(_ != "sweep-after"))
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .getOrCreate()
    // One line in test output naming the heap setting, master and
    // parallelism this run used.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
