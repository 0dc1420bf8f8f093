package repro.exp

import repro.SparkSpec
import repro.graphs.GraphFrames.NetworkStats

/** Golden Table 3: every cell of `Tables.table3` over the eight networks.
  * Counts are compared exactly and the clustering coefficient and average
  * distance as exact doubles (NaN equals NaN), so a reimplementation of any
  * statistic must reproduce the old values to the last bit.
  */
class Table3GoldenSpec extends SparkSpec {

  private val golden = Seq(
    NetworkStats("Karate", 34, 156, 17, 17, 0.2556818181818182, 2.408199643493761),
    NetworkStats("Physicians", 241, 1098, 9, 25, 0.04816143497757847, Double.NaN),
    NetworkStats("ca-GrQc", 5242, 30288, 88, 88, 0.29370203552995305, Double.NaN),
    NetworkStats("Wiki-Vote", 7115, 103689, 733, 403, 0.017743510762180233, Double.NaN),
    NetworkStats("com-Youtube~", 20000, 119982, 412, 412, 0.0015877202814411173, Double.NaN),
    NetworkStats("soc-Pokec~", 20000, 375000, 489, 2814, 0.008080443192116751, Double.NaN),
    NetworkStats("BA_s", 1000, 999, 24, 32, 0.0, 6.801459459459459),
    NetworkStats("BA_d", 1000, 10879, 102, 97, 0.060894086143205975, 2.498182182182182),
  )

  private def sameDouble(a: Double, b: Double): Boolean =
    java.lang.Double.compare(a, b) == 0

  test("Table 3 rows of all eight networks equal the golden values") {
    val rows = Tables.table3(spark, Instances.all)
    assert(rows.map(_.name) == golden.map(_.name))
    rows.zip(golden).foreach { case (got, exp) =>
      assert((got.n, got.m, got.maxOut, got.maxIn) == (exp.n, exp.m, exp.maxOut, exp.maxIn),
             s"${exp.name}")
      assert(sameDouble(got.clusteringCoef, exp.clusteringCoef),
             s"${exp.name} cc ${got.clusteringCoef} != ${exp.clusteringCoef}")
      assert(sameDouble(got.avgDistance, exp.avgDistance),
             s"${exp.name} dist ${got.avgDistance} != ${exp.avgDistance}")
    }
  }
}
