package repro.bench

import repro.SparkSpec
import repro.exp.{BenchPlan, Tables}

/** Reproduces paper Table 7: median comparable number and size ratios of
  * RIS to Snapshot — "Snapshot requires fewer but larger samples than RIS".
  */
class Table7RisVsSnapshotBench extends SparkSpec {

  private lazy val rows = Tables.table7(spark, BenchPlan.sweepRows)

  private lazy val cells: Map[(String, String, Int), (Option[Double], Option[Double])] =
    rows.flatMap { r =>
      Tables.models.indices.map(i => (r.network, Tables.models(i).name, r.k) -> (r.numbers(i), r.sizes(i)))
    }.toMap

  test("print Table 7 rows") {
    Tables.table7Lines(rows).foreach(println)
    assert(cells.nonEmpty)
  }

  test("RIS needs more samples than Snapshot on the bulk of instances") {
    val nums = cells.values.flatMap(_._1).toSeq
    assert(nums.nonEmpty)
    val fraction = nums.count(_ >= 1.0).toDouble / nums.size
    assert(fraction > 0.7, s"number ratio < 1 on ${(1 - fraction) * 100}%% of cells")
  }

  test("number ratios reach into the thousands on low-probability instances") {
    val lowProb = Seq("com-Youtube~", "soc-Pokec~", "ca-GrQc", "BA_s")
      .flatMap(net => cells.get((net, "UC0.01", 1)).flatMap(_._1))
    assert(lowProb.nonEmpty)
    assert(lowProb.max > 512.0, s"max UC0.01 number ratio only ${lowProb.max}")
  }

  test("RIS is more space-saving than Snapshot on the large networks (size ratio < 1)") {
    val bigSizes = for {
      net <- Seq("com-Youtube~", "soc-Pokec~")
      m <- Seq("UC0.01", "IWC", "OWC")
      s <- cells.get((net, m, 1)).flatMap(_._2)
    } yield s
    assert(bigSizes.nonEmpty)
    val fraction = bigSizes.count(_ < 1.0).toDouble / bigSizes.size
    assert(fraction > 0.6, s"size ratio ≥ 1 on large nets: $bigSizes")
  }

  test("IWC size ratios on the large networks are far below 1 (paper: 3e-4..2e-2)") {
    val iwc = Seq("com-Youtube~", "soc-Pokec~")
      .flatMap(net => cells.get((net, "IWC", 1)).flatMap(_._2))
    assert(iwc.nonEmpty)
    assert(iwc.forall(_ < 0.5), s"IWC size ratios: $iwc")
  }

  test("number ratio is less k-dependent than Oneshot's (paper finding)") {
    // On Karate, ratios at k=1 and k=4 stay within a factor 8 of each other.
    val pairs = for {
      m <- Seq("UC0.1", "UC0.01", "IWC", "OWC")
      a <- cells.get(("Karate", m, 1)).flatMap(_._1)
      b <- cells.get(("Karate", m, 4)).flatMap(_._1)
    } yield math.max(a / b, b / a)
    assert(pairs.nonEmpty)
    assert(pairs.count(_ <= 8.0).toDouble / pairs.size >= 0.5, s"spreads: $pairs")
  }
}
