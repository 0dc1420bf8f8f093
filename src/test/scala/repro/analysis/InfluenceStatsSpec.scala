package repro.analysis

import org.scalatest.funsuite.AnyFunSuite

class InfluenceStatsSpec extends AnyFunSuite {

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
}
