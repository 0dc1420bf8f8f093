package repro.analysis

import repro.{Oracle, SparkSpec}

class InfluenceStatsSpec extends SparkSpec {
  import spark.implicits._

  test("summarize of a constant sample") {
    val s = InfluenceStats.summarize(Seq(5.0, 5.0, 5.0))
    assert(s.mean == 5.0 && s.std == 0.0 && s.p01 == 5.0 && s.p99 == 5.0)
    assert(s.min == 5.0 && s.max == 5.0)
  }

  test("summarize mean and std of 1..4") {
    val s = InfluenceStats.summarize(Seq(1.0, 2.0, 3.0, 4.0))
    assert(s.mean == 2.5)
    assert(math.abs(s.std - math.sqrt(1.25)) < 1e-12)
    assert(s.min == 1.0 && s.max == 4.0)
  }

  test("percentiles pick order statistics from the sorted sample") {
    val s = InfluenceStats.summarize((1 to 100).map(_.toDouble))
    assert(s.p01 == 1.0)
    assert(s.p50 == 50.0)
    assert(s.p99 == 99.0)
  }

  test("summarize rejects the empty sample") {
    assertThrows[IllegalArgumentException](InfluenceStats.summarize(Seq.empty))
  }

  test("leastSampleNumber finds the first qualifying grid point") {
    val curve = Seq(
      1L -> Seq(1.0, 1.0, 1.0, 1.0),
      2L -> Seq(9.0, 9.0, 9.0, 1.0),   // 75% success
      4L -> Seq(9.0, 9.0, 9.0, 9.0),   // 100% success
      8L -> Seq(10.0, 10.0, 10.0, 10.0),
    )
    assert(InfluenceStats.leastSampleNumber(curve, reference = 9.0) == Some(4L))
  }

  test("leastSampleNumber honours the probability threshold") {
    val curve = Seq(1L -> (Seq.fill(99)(10.0) :+ 1.0)) // exactly 99%
    assert(InfluenceStats.leastSampleNumber(curve, reference = 10.0) == Some(1L))
    val curve2 = Seq(1L -> (Seq.fill(98)(10.0) ++ Seq(1.0, 1.0))) // 98%
    assert(InfluenceStats.leastSampleNumber(curve2, reference = 10.0).isEmpty)
  }

  test("leastSampleNumber applies the 0.95 near-optimality ratio") {
    val curve = Seq(1L -> Seq(9.5, 9.6, 9.7, 9.5))
    assert(InfluenceStats.leastSampleNumber(curve, reference = 10.0) == Some(1L))
    val curve2 = Seq(1L -> Seq(9.4, 9.4, 9.4, 9.4))
    assert(InfluenceStats.leastSampleNumber(curve2, reference = 10.0).isEmpty)
  }

  test("leastSampleNumber of an empty curve is None") {
    assert(InfluenceStats.leastSampleNumber(Seq.empty, 1.0).isEmpty)
  }

  test("summarize agrees with DuckDB on mean and std (oracle)") {
    val vals = Seq((1L, 1.0), (1L, 2.0), (1L, 6.0), (4L, 4.0), (4L, 8.0))
    def round6(x: Double) = math.round(x * 1e6) / 1e6
    val local = vals.groupBy(_._1).toSeq.map { case (s, rows) =>
      val sum = InfluenceStats.summarize(rows.map(_._2))
      (s, round6(sum.mean), round6(sum.std))
    }.toDF("sample_number", "mean", "std")
    Oracle.assertEquivalent(
      local,
      """SELECT sample_number,
        |       ROUND(AVG(CAST(influence AS DOUBLE)), 6) AS mean,
        |       ROUND(COALESCE(STDDEV_POP(CAST(influence AS DOUBLE)), 0), 6) AS std
        |FROM vals GROUP BY sample_number""".stripMargin,
      "vals" -> vals.toDF("sample_number", "influence"),
    )
  }
}
