package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.spark.Alg

class TablesSpec extends AnyFunSuite {

  /** Synthetic sweep with controlled curves:
    * Snapshot mean reaches m at sample number s = m (identity curve),
    * Oneshot needs 4× the samples, RIS needs 64× but tiny sizes.
    */
  private def syntheticSweep(trials: Int = 100): Sweep.Result = {
    def point(alg: String, s: Long, mean: Double, size: Double,
              influences: Seq[Double], entropy: Double = 1.0) =
      Sweep.Point(alg, s, entropy, influences, mean, size, 10.0 * s, 100.0 * s)
    val grid = Seq(1L, 2L, 4L, 8L, 16L, 32L, 64L, 128L)
    val snapshot = grid.map(s => point("Snapshot", s, math.log(s.toDouble * 2), 50.0 * s,
      Seq.fill(trials)(math.log(s.toDouble * 2))))
    val oneshot = grid.map(s => point("Oneshot", s, math.log(s.toDouble / 2), 0.0,
      Seq.fill(trials)(math.log(s.toDouble / 2))))
    val ris = (0 to 13).map(1L << _).map(s => point("RIS", s, math.log(s / 32.0), 0.5 * s,
      Seq.fill(trials)(math.log(s / 32.0))))
    Sweep.Result(snapshot ++ oneshot ++ ris, "0", referenceInfluence = math.log(256.0))
  }

  test("table6Cell: Oneshot:Snapshot comparable number ratio is the shift factor") {
    val ratio = Tables.table6Cell(syntheticSweep())
    assert(ratio == Some(4.0))
  }

  test("table7Cell: RIS:Snapshot number ratio is 64 and size ratio follows") {
    val (num, size) = Tables.table7Cell(syntheticSweep())
    assert(num == Some(64.0))
    // at base s, size base = 50s; target s2 = 64s with size 0.5·64s = 32s
    assert(size.isDefined)
    assert(math.abs(size.get - 32.0 / 50.0) < 1e-9)
  }

  test("table5Cell finds the least sample number at 0.95 of the reference") {
    val sweep = syntheticSweep()
    // Snapshot mean log(2s) >= 0.95·log(256) ⇔ 2s >= 256^0.95 ⇒ s = 128.
    val cell = Tables.leastSample(sweep, Alg.SnapshotAlg)
    assert(cell.isInstanceOf[Tables.LeastSample])
    assert(cell.asInstanceOf[Tables.LeastSample].log2SampleNumber == 7)
  }

  test("table5Cell is None when the curve never qualifies") {
    val sweep = syntheticSweep()
    // Oneshot's top mean log(64) vs threshold 0.95·log(256): log(64)=4.16 < 5.27
    assert(Tables.leastSample(sweep, Alg.OneshotAlg) == Tables.AboveMax)
  }

  test("table5Cell reports the entropy at the qualifying point") {
    val sweep = syntheticSweep()
    val cell = Tables.leastSample(sweep, Alg.SnapshotAlg).asInstanceOf[Tables.LeastSample]
    assert(cell.entropy == 1.0)
  }

  test("a Table 5 cell of an algorithm without grid points is not run, not >max") {
    val sweep = syntheticSweep()
    val noOneshot = sweep.copy(points = sweep.points.filterNot(_.alg == "Oneshot"))
    assert(Tables.leastSample(noOneshot, Alg.OneshotAlg) == Tables.NotRun)
    assert(Tables.leastSample(sweep, Alg.OneshotAlg) == Tables.AboveMax)
    assert(Tables.leastSample(sweep, Alg.SnapshotAlg) == Tables.LeastSample(7, 1.0))
    val row = Tables.LeastSampleRow("BA_d", "IWC", 16, Alg.all.map(Tables.leastSample(noOneshot, _)))
    assert(Tables.table5Lines(Seq(row)).last ==
      "[table5] BA_d           IWC     16 |     -     - |     7  1.00 |    13  1.00")
  }

  /** A sweep whose only curve is Snapshot's: one point per (sample number,
    * influences), with entropy log₂ of the sample number.
    */
  private def curveSweep(reference: Double, points: (Long, Seq[Double])*): Sweep.Result =
    Sweep.Result(points.map { case (s, infs) =>
      Sweep.Point("Snapshot", s, java.lang.Long.numberOfTrailingZeros(s).toDouble, infs,
                  infs.sum / infs.size, 0.0, 0.0, 0.0)
    }, "0", reference)

  test("leastSample finds the first qualifying grid point") {
    val sweep = curveSweep(9.0,
      1L -> Seq(1.0, 1.0, 1.0, 1.0),
      2L -> Seq(9.0, 9.0, 9.0, 1.0),   // 75% success
      4L -> Seq(9.0, 9.0, 9.0, 9.0),   // 100% success
      8L -> Seq(10.0, 10.0, 10.0, 10.0))
    assert(Tables.leastSample(sweep, Alg.SnapshotAlg) == Tables.LeastSample(2, 2.0))
  }

  test("leastSample honours the probability threshold") {
    val exactly99 = curveSweep(10.0, 1L -> (Seq.fill(99)(10.0) :+ 1.0))
    assert(Tables.leastSample(exactly99, Alg.SnapshotAlg) == Tables.LeastSample(0, 0.0))
    val only98 = curveSweep(10.0, 1L -> (Seq.fill(98)(10.0) ++ Seq(1.0, 1.0)))
    assert(Tables.leastSample(only98, Alg.SnapshotAlg) == Tables.AboveMax)
  }

  test("leastSample applies the 0.95 near-optimality ratio") {
    val atBar = curveSweep(10.0, 1L -> Seq(9.5, 9.6, 9.7, 9.5))
    assert(Tables.leastSample(atBar, Alg.SnapshotAlg) == Tables.LeastSample(0, 0.0))
    val belowBar = curveSweep(10.0, 1L -> Seq(9.4, 9.4, 9.4, 9.4))
    assert(Tables.leastSample(belowBar, Alg.SnapshotAlg) == Tables.AboveMax)
  }

  test("leastSample of an empty curve is NotRun") {
    assert(Tables.leastSample(curveSweep(1.0), Alg.SnapshotAlg) == Tables.NotRun)
  }

  test("table9Cell multiplies per-sample total cost by the comparable ratio") {
    val c = Tables.PerSampleCost(vertex = 100.0, edge = 900.0)
    assert(Tables.table9Cell(c, 4.0) == 4000.0)
    assert(c.total == 1000.0)
  }

  test("a sweep with trials below the 99% resolution still resolves cells") {
    // With 10 trials, 99% success requires all 10 — a constant curve works.
    val cell = Tables.leastSample(syntheticSweep(trials = 10), Alg.SnapshotAlg)
    assert(cell.isInstanceOf[Tables.LeastSample])
  }

  test("fmt renders integers with separators and small reals with precision") {
    assert(Tables.fmt(1234567.0) == "1,234,567")
    assert(Tables.fmt(Double.NaN) == "-")
    assert(Tables.fmt(0.00033).startsWith("0.000330"))
    assert(Tables.fmt(3.5) == "3.500")
  }

  test("fmtOpt renders None as dash") {
    assert(Tables.fmtOpt(None) == "-")
    assert(Tables.fmtOpt(Some(2.0)) == "2")
  }

  test("curve extraction filters by algorithm and sorts by sample number") {
    val sweep = syntheticSweep()
    val c = sweep.curve(Alg.RisAlg)
    assert(c.map(_.sampleNumber) == (0 to 13).map(1L << _))
    assert(c.forall(_.alg == "RIS"))
  }

  test("ratioCurve carries mean influence and sample size") {
    val sweep = syntheticSweep()
    val rc = sweep.ratioCurve(Alg.SnapshotAlg)
    assert(rc.head.meanSampleSize == 50.0)
    assert(rc.last.sampleNumber == 128L)
  }
}
