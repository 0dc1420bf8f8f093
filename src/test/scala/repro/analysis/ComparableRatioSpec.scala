package repro.analysis

import org.scalatest.funsuite.AnyFunSuite
import repro.analysis.ComparableRatio._

class ComparableRatioSpec extends AnyFunSuite {

  test("median of an odd-size list is the middle element") {
    assert(median(Seq(3.0, 1.0, 2.0)) == 2.0)
  }

  test("median of an even-size list is the lower middle") {
    assert(median(Seq(1.0, 2.0, 3.0, 4.0)) == 2.0)
  }

  test("median of a singleton") {
    assert(median(Seq(7.0)) == 7.0)
  }

  test("median of empty rejects; medianOpt returns None") {
    assertThrows[IllegalArgumentException](median(Seq.empty))
    assert(medianOpt(Seq.empty).isEmpty)
    assert(medianOpt(Seq(2.0)) == Some(2.0))
  }
}
