package repro.bench

import repro.SparkSpec
import repro.exp.{BenchPlan, Tables}
import repro.spark.Alg

/** Reproduces paper Table 5: least sample number (log₂) and entropy at
  * which each algorithm reaches 0.95-near-optimality with probability 99%.
  */
class Table5LeastSampleBench extends SparkSpec {

  private lazy val table = Tables.table5(spark, BenchPlan.sweepRows)

  private lazy val cells: Seq[(String, String, Int, Map[String, Option[Tables.LeastSample]])] =
    table.map(r => (r.network, r.model, r.k, Alg.all.map(a => a.name -> r.reached(a)).toMap))

  test("print Table 5 rows") {
    Tables.table5Lines(table).foreach(println)
    assert(cells.nonEmpty)
  }

  test("RIS needs more samples than Snapshot wherever both are defined (paper shape)") {
    val comparable = for {
      (_, _, _, m) <- cells
      r <- m("RIS"); s <- m("Snapshot")
    } yield r.log2SampleNumber >= s.log2SampleNumber
    assert(comparable.nonEmpty)
    val fraction = comparable.count(identity).toDouble / comparable.size
    assert(fraction > 0.8, s"only ${fraction * 100}%% of rows satisfy θ* ≥ τ*")
  }

  test("Oneshot never needs fewer samples than half of Snapshot's") {
    val diffs = for {
      (_, _, _, m) <- cells
      o <- m("Oneshot"); s <- m("Snapshot")
    } yield o.log2SampleNumber - s.log2SampleNumber
    assert(diffs.nonEmpty)
    assert(diffs.count(_ >= -1).toDouble / diffs.size > 0.75,
           s"β* << τ* on too many rows: $diffs")
  }

  test("the required sample number varies widely across instances (paper finding)") {
    val snap = cells.flatMap(_._4("Snapshot")).map(_.log2SampleNumber)
    assert(snap.nonEmpty)
    assert(snap.max - snap.min >= 3,
           s"τ* spans only [${snap.min}, ${snap.max}]")
  }

  test("Karate (UC0.1, k=1) resolves within the grid for every algorithm") {
    val (_, _, _, m) = cells.find(c => c._1 == "Karate" && c._2 == "UC0.1" && c._3 == 1).get
    assert(m("Oneshot").isDefined && m("Snapshot").isDefined && m("RIS").isDefined)
  }

  test("entropy at the least sample number need not be 0 (paper remark)") {
    val entropies = cells.flatMap(_._4.values.flatten).map(_.entropy)
    assert(entropies.exists(_ > 0.5), "all H* were ~0 — near-optimality should precede degeneracy")
  }
}
