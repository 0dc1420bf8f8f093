package repro.analysis

import repro.{Oracle, SparkSpec}

class SeedSetStatsSpec extends SparkSpec {
  import spark.implicits._

  test("entropy of a degenerate distribution is 0") {
    assert(SeedSetStats.entropyOfKeys(Seq("a", "a", "a", "a")) == 0.0)
  }

  test("entropy of a uniform two-point distribution is 1 bit") {
    assert(math.abs(SeedSetStats.entropyOfKeys(Seq("a", "b", "a", "b")) - 1.0) < 1e-12)
  }

  test("entropy of a uniform 8-point distribution is 3 bits") {
    val keys = (0 until 8).map(_.toString)
    assert(math.abs(SeedSetStats.entropyOfKeys(keys) - 3.0) < 1e-12)
  }

  test("entropy of a (3/4, 1/4) split is 0.811 bits") {
    val keys = Seq("a", "a", "a", "b")
    val expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25)) / math.log(2)
    assert(math.abs(SeedSetStats.entropyOfKeys(keys) - expected) < 1e-12)
  }

  test("entropy never exceeds log2 of the trial count") {
    val keys = (0 until 100).map(i => s"k${i % 37}")
    assert(SeedSetStats.entropyOfKeys(keys) <= math.log(100.0) / math.log(2.0) + 1e-12)
  }

  test("entropy of the empty sample is 0") {
    assert(SeedSetStats.entropyOfKeys(Seq.empty) == 0.0)
  }

  test("entropyOfKeys agrees with DuckDB (oracle)") {
    val keys = Seq.fill(6)("a") ++ Seq.fill(3)("b") ++ Seq.fill(1)("c")
    val local = Seq(math.round(SeedSetStats.entropyOfKeys(keys) * 1e6) / 1e6).toDF("entropy")
    Oracle.assertEquivalent(
      local,
      """SELECT ROUND(-SUM(p * LOG2(p)), 6) AS entropy
        |FROM (SELECT COUNT(*) * 1.0 / (SELECT COUNT(*) FROM trials) AS p
        |      FROM trials GROUP BY seed_key)""".stripMargin,
      "trials" -> keys.toDF("seed_key"),
    )
  }

  test("mode returns the most frequent key and its probability") {
    val keys = Seq("a", "b", "b", "b", "c")
    assert(SeedSetStats.mode(keys) == ("b", 0.6))
  }

  test("mode of a degenerate sample is (key, 1.0)") {
    assert(SeedSetStats.mode(Seq("z", "z")) == ("z", 1.0))
  }
}
