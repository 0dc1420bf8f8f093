package repro.jobs

import repro.exp.{Instances, Tables}
import repro.spark.RRSetJob

/** Reproduces the paper's Table 4: top-3 single-vertex influence spreads on
  * BA_s and BA_d under all four edge-probability models, estimated with the
  * shared RR-set oracle.
  *
  * Run: `spark-submit --class repro.jobs.Table4TopInfluence <jar> [theta]`
  */
object Table4TopInfluence {
  def main(args: Array[String]): Unit = {
    val theta = if (args.nonEmpty) args(0).toLong else 500000L
    val spark = JobSession.create("table4-top-influence")
    try {
      for (spec <- Seq(Instances.baS, Instances.baD)) {
        println(s"${spec.name}:")
        for (model <- Tables.models) {
          val g = Instances.influenceGraph(spec, model)
          val top = Tables.table4Row(RRSetJob(spark, g, theta, seed = 4242L))
          println(f"  ${model.name}%-7s Inf(v1)=${top(0)}%.4f Inf(v2)=${top(1)}%.4f Inf(v3)=${top(2)}%.4f")
        }
      }
    } finally spark.stop()
  }
}
