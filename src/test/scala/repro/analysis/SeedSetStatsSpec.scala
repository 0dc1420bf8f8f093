package repro.analysis

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle

class SeedSetStatsSpec extends AnyFunSuite {

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
    val local = math.round(SeedSetStats.entropyOfKeys(keys) * 1e6) / 1e6
    Oracle.assertEquivalent(
      Oracle.Rows(Seq("entropy"), Seq(Seq(local))),
      """SELECT ROUND(-SUM(p * LOG2(p)), 6) AS entropy
        |FROM (SELECT COUNT(*) * 1.0 / (SELECT COUNT(*) FROM trials) AS p
        |      FROM trials GROUP BY seed_key)""".stripMargin,
      "trials" -> Oracle.Rows(Seq("seed_key"), keys.map(Seq(_))),
    )
  }
}
