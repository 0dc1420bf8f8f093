package repro.exp

import org.apache.spark.sql.SparkSession

/** Prints the `[tableN]` lines of one evaluation table of the paper on the
  * full plan.
  *
  * Run: `sbt "runMain repro.exp.Main 3"` (tables 3–9). The Spark master is
  * `SPARK_MASTER`, `local[*]` by default.
  */
object Main {
  val Usage = "usage: repro.exp.Main <table>, where <table> is one of 3, 4, 5, 6, 7, 8, 9"

  def main(args: Array[String]): Unit = {
    val table = args match {
      case Array(t @ ("3" | "4" | "5" | "6" | "7" | "8" | "9")) => t.toInt
      case _ => throw new IllegalArgumentException(Usage)
    }
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"table$table")
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    try Tables.lines(spark, table).foreach(println)
    finally spark.stop()
  }
}
