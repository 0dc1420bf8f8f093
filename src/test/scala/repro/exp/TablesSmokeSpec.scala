package repro.exp

import repro.SparkSpec
import repro.graphs.{LocalGraph, ProbModel}

/** The table path of Tables 4–9 end to end on a reduced Karate-only plan
  * (small T and grids, Karate's single oracle θ), pinned as rendered lines.
  */
class TablesSmokeSpec extends SparkSpec {

  import Instances.karate

  private def cfg(oneshot: Long) =
    Sweep.Config(trials = 20, oneshotMax = oneshot, snapshotMax = 8, risMax = 64,
                 refTheta = 1L << 12)

  // The k = 4 row runs no Oneshot, so Table 5 shows a not-run cell.
  private val sweepRows =
    ProbModel.all.map(SweepRow(karate, _, 1, cfg(8))) :+ SweepRow(karate, ProbModel.IWC, 4, cfg(0))
  private val costRows =
    Seq(BenchPlan.Table8Row(karate, ProbModel.all, withOneshot = true, trials = 20))

  private def check(got: Seq[String], golden: Seq[String]): Unit =
    assert(got == golden, got.mkString("\n", "\n", "\n"))

  test("Table 4 on Karate") {
    check(Tables.table4Lines(Tables.table4(spark, Seq(karate))), Seq(
      "[table4] network  model    Inf(v1)    Inf(v2)    Inf(v3)",
      "[table4] Karate   IWC       10.5941   10.0186    8.0796",
      "[table4] Karate   OWC        4.2353    4.0734    3.9447",
      "[table4] Karate   UC0.01     1.1748    1.1648    1.1294",
      "[table4] Karate   UC0.1      3.5180    3.3829    3.0070",
    ))
  }

  test("Table 5 on the reduced plan") {
    check(Tables.table5Lines(Tables.table5(spark, sweepRows)), Seq(
      "[table5] network        prob     k | lg b*    H* | lg t*    H* | lg th*   H*",
      "[table5] Karate         UC0.1    1 |  >max     - |  >max     - |  >max     -",
      "[table5] Karate         UC0.01   1 |  >max     - |  >max     - |  >max     -",
      "[table5] Karate         IWC      1 |  >max     - |  >max     - |  >max     -",
      "[table5] Karate         OWC      1 |  >max     - |     3  3.52 |  >max     -",
      "[table5] Karate         IWC      4 |     -     - |  >max     - |  >max     -",
    ))
  }

  test("Table 6 on the reduced plan") {
    check(Tables.table6Lines(Tables.table6(spark, sweepRows)), Seq(
      "[table6] network         k    UC0.1   UC0.01      IWC      OWC",
      "[table6] Karate          1        1        2        2        2",
    ))
  }

  test("Table 7 on the reduced plan") {
    check(Tables.table7Lines(Tables.table7(spark, sweepRows)), Seq(
      "[table7] network         k |   number ratio (UC0.1 UC0.01 IWC OWC) |   size ratio (UC0.1 UC0.01 IWC OWC)",
      "[table7] Karate          1 | 1 - 8 16 | 0.1646 - 0.8391 1.561",
      "[table7] Karate          4 | - - 16 - | - - 1.700 -",
    ))
  }

  test("Table 8 on the reduced plan") {
    check(Tables.table8Lines(Tables.table8(spark, costRows)), Seq(
      "[table8] network        alg       model        vertex          edge",
      "[table8] Karate         Oneshot   IWC             123.1         546.5",
      "[table8] Karate         Oneshot   OWC             130.8         887.2",
      "[table8] Karate         Oneshot   UC0.01           35.8         169.5",
      "[table8] Karate         Oneshot   UC0.1            64.1         357.6",
      "[table8] Karate         RIS       IWC               4.4          27.1",
      "[table8] Karate         RIS       OWC               3.1          14.1",
      "[table8] Karate         RIS       UC0.01            1.0           4.4",
      "[table8] Karate         RIS       UC0.1             2.4          13.2",
      "[table8] Karate         Snapshot  IWC             111.1          99.4",
      "[table8] Karate         Snapshot  OWC             131.0         135.2",
      "[table8] Karate         Snapshot  UC0.01           35.8           1.8",
      "[table8] Karate         Snapshot  UC0.1            64.9          36.6",
    ))
  }

  test("Table 9 on the reduced plan") {
    check(Tables.table9Lines(Tables.table9(spark, Seq(karate), costRows, sweepRows)), Seq(
      "[table9] network        alg           UC0.1        UC0.01           IWC           OWC",
      "[table9] Karate         Oneshot           421.6         410.4       1,339.1         2,036",
      "[table9] Karate         RIS               15.50             -         251.6         274.4",
      "[table9] Karate         Snapshot          101.4         37.50         210.5         266.1",
    ))
  }

  test("plan rows are matched by network spec, not by network name") {
    val a = NetworkSpec("twin", starred = false, withDistance = false,
                        () => LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3))))
    val b = a.copy(build = () => LocalGraph.fromEdges(4, Seq((0, 1), (0, 2), (0, 3))))
    val small = Sweep.Config(trials = 4, oneshotMax = 2, snapshotMax = 2, risMax = 4,
                             refTheta = 1L << 10)
    val rows = for (spec <- Seq(a, b); model <- Seq(ProbModel.IWC, ProbModel.OWC))
      yield SweepRow(spec, model, 1, small)
    val perSpec = rows.grouped(2).toSeq
    assert(Tables.table6(spark, rows) == perSpec.flatMap(Tables.table6(spark, _)))
    assert(Tables.table7(spark, rows) == perSpec.flatMap(Tables.table7(spark, _)))
    // Each spec's Table 9 cells follow its own Table 8 models: IWC for a, OWC for b.
    val costs = Seq(BenchPlan.Table8Row(a, Seq(ProbModel.IWC), withOneshot = false, trials = 2),
                    BenchPlan.Table8Row(b, Seq(ProbModel.OWC), withOneshot = false, trials = 2))
    val snapshot = Tables.table9(spark, Seq(a, b), costs, rows).filter(_.alg == "Snapshot")
    assert(snapshot.map(_.costs.map(_.isDefined)) ==
             Seq(Seq(false, false, true, false), Seq(false, false, false, true)))
  }

  test("Main without a table 3-9 fails with a usage message naming them") {
    for (args <- Seq(Array.empty[String], Array("2"), Array("10"), Array("x"), Array("3", "4"))) {
      val e = intercept[IllegalArgumentException](Main.main(args))
      assert(e.getMessage == Main.Usage, args.mkString(" "))
    }
    assert(Main.Usage.contains("3, 4, 5, 6, 7, 8, 9"))
  }
}
