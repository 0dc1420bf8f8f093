package repro.bench

import repro.SparkSpec
import repro.exp.{BenchPlan, Tables}

/** Reproduces paper Table 6: median comparable number ratio of Oneshot to
  * Snapshot.
  */
class Table6OneshotVsSnapshotBench extends SparkSpec {

  private lazy val rows = Tables.table6(spark, BenchPlan.sweepRows)

  private lazy val cells: Map[(String, String, Int), Option[Double]] =
    rows.flatMap(r => Tables.models.zip(r.ratios).map { case (m, c) => (r.network, m.name, r.k) -> c })
      .toMap

  test("print Table 6 rows") {
    Tables.table6Lines(rows).foreach(println)
    assert(cells.nonEmpty)
  }

  test("Snapshot requires no more samples than Oneshot on most instances") {
    // Flat-influence instances (e.g. UC0.01 on hub-less surrogates) can
    // degenerate to ratios < 1 at our reduced trial counts, so assert on
    // the bulk, not every cell.
    val defined = cells.values.flatten.toSeq
    assert(defined.nonEmpty)
    val fraction = defined.count(_ >= 1.0).toDouble / defined.size
    assert(fraction > 0.6, s"ratio < 1 on ${(1 - fraction) * 100}%% of cells")
  }

  test("the median cell ratio lies within the paper's observed band [1, 96]") {
    val defined = cells.values.flatten.toSeq.sorted
    assert(defined.nonEmpty)
    val med = defined((defined.size - 1) / 2)
    assert(med >= 1.0 && med <= 96.0, s"median ratio $med")
  }

  test("the ratio tends to grow with the seed size k (paper finding)") {
    // Compare k=1 vs k=16 medians across networks that have both.
    val nets = rows.map(_.network).distinct
    val grew = for {
      net <- nets
      lo = Seq("UC0.1", "UC0.01", "IWC", "OWC").flatMap(m => cells.getOrElse((net, m, 1), None))
      hi = Seq("UC0.1", "UC0.01", "IWC", "OWC").flatMap(m => cells.getOrElse((net, m, 16), None))
      if lo.nonEmpty && hi.nonEmpty
    } yield (hi.sum / hi.size) >= (lo.sum / lo.size)
    assert(grew.nonEmpty)
    assert(grew.count(identity) >= (grew.size + 1) / 2,
           s"ratio grew with k on only ${grew.count(identity)}/${grew.size} networks")
  }
}
