package repro.exp

import org.scalacheck.{Gen, Prop, Test => SCTest}
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

  /** A sweep whose Snapshot curve is `base` and whose Oneshot and RIS
    * curves are both `target`, each point (sample number, mean influence,
    * mean sample size).
    */
  private def ratioSweep(base: Seq[(Long, Double, Double)],
                         target: Seq[(Long, Double, Double)]): Sweep.Result = {
    def points(alg: Alg, curve: Seq[(Long, Double, Double)]) = curve.map { case (s, mean, size) =>
      Sweep.Point(alg.name, s, 0.0, Seq(mean), mean, size, 0.0, 0.0)
    }
    Sweep.Result(points(Alg.SnapshotAlg, base) ++ points(Alg.OneshotAlg, target) ++
                   points(Alg.RisAlg, target), "0", 0.0)
  }

  /** Table 7's (number, size) ratios of `sweep`, after checking that Table
    * 6's number ratio, read off the same target curve, is Table 7's.
    */
  private def cells(sweep: Sweep.Result): (Option[Double], Option[Double]) = {
    val cell = Tables.table7Cell(sweep)
    assert(Tables.table6Cell(sweep) == cell._1)
    cell
  }

  /** (sample number, mean influence) points with sample size 10 × the sample number. */
  private def curve(points: (Long, Double)*): Seq[(Long, Double, Double)] =
    points.map { case (s, mean) => (s, mean, s * 10.0) }

  test("table6Cell and table7Cell pair a Snapshot point with the least qualifying grid point") {
    val target = curve(1L -> 1.0, 2L -> 2.0, 4L -> 3.0, 8L -> 4.0)
    assert(cells(ratioSweep(curve(1L -> 2.5), target))._1 == Some(4.0))
    assert(cells(ratioSweep(curve(1L -> 1.0), target))._1 == Some(1.0))
    assert(cells(ratioSweep(curve(1L -> 4.0), target))._1 == Some(8.0))
  }

  test("table6Cell and table7Cell are None when the target never reaches a Snapshot point") {
    assert(cells(ratioSweep(curve(1L -> 2.5, 2L -> 3.0), curve(1L -> 1.0, 2L -> 2.0))) == ((None, None)))
  }

  test("table6Cell and table7Cell: a twice-shifted curve has number ratio 2 at every point") {
    // target(s) reaches the same mean as base(s/2): ratio 2.
    val target = curve(2L -> 1.0, 4L -> 2.0, 8L -> 3.0)
    for (b <- curve(1L -> 1.0, 2L -> 2.0, 4L -> 3.0))
      assert(cells(ratioSweep(Seq(b), target)) == ((Some(2.0), Some(2.0))))
  }

  test("table6Cell and table7Cell: identical curves have number ratio 1 at every point") {
    val c = curve(1L -> 1.0, 2L -> 2.0, 4L -> 3.0)
    for (b <- c) assert(cells(ratioSweep(Seq(b), c)) == ((Some(1.0), Some(1.0))))
  }

  test("table6Cell and table7Cell drop unreachable Snapshot points, not zero-fill them") {
    // Zero-filled, the number ratios would be (1, 0), of lower median 0.
    val sweep = ratioSweep(curve(1L -> 1.0, 2L -> 10.0), curve(1L -> 1.0, 2L -> 2.0))
    assert(cells(sweep) == ((Some(1.0), Some(1.0))))
  }

  test("table7Cell size ratio divides RIS size at s2 by Snapshot size at s1") {
    // Snapshot: size 10·s; RIS: size s. RIS needs 2× the samples.
    val target = Seq((1L, 0.5, 1.0), (2L, 1.0, 2.0), (4L, 2.0, 4.0))
    assert(cells(ratioSweep(Seq((1L, 1.0, 10.0)), target)) == ((Some(2.0), Some(2.0 / 10.0))))
    assert(cells(ratioSweep(Seq((2L, 2.0, 20.0)), target)) == ((Some(2.0), Some(4.0 / 20.0))))
  }

  test("table7Cell drops Snapshot points of size 0 from size ratios") {
    val target = Seq((1L, 1.0, 5.0), (2L, 1.5, 7.0), (4L, 2.0, 10.0))
    // Kept, the two size-0 points would give ratios ∞, ∞ and 0.5, of median ∞.
    val base = Seq((1L, 1.0, 0.0), (2L, 1.5, 0.0), (4L, 2.0, 20.0))
    assert(cells(ratioSweep(base, target)) == ((Some(1.0), Some(0.5))))
    assert(cells(ratioSweep(base.take(1), target)) == ((Some(1.0), None)))
  }

  test("table6Cell and table7Cell: on a non-monotone target the least qualifying point comes first") {
    val target = curve(1L -> 3.0, 2L -> 1.0, 4L -> 5.0)
    assert(cells(ratioSweep(curve(1L -> 2.0), target))._1 == Some(1.0))
    assert(cells(ratioSweep(curve(1L -> 4.0), target))._1 == Some(4.0))
  }

  /** Random sweeps: each algorithm's curve has 0 to 6 points on a
    * powers-of-two grid from 1, 2, 4 or 8, means 0 to 4 in steps of 0.5
    * (non-monotone, with ties), Snapshot sizes 0 in one point of three,
    * RIS sizes at least 1, and the points of all curves shuffled.
    */
  private val randomSweep: Gen[Sweep.Result] = {
    def curveGen(alg: Alg, size: Gen[Double]) = for {
      first <- Gen.choose(0, 3)
      n <- Gen.choose(0, 6)
      means <- Gen.listOfN(n, Gen.choose(0, 8).map(_ / 2.0))
      sizes <- Gen.listOfN(n, size)
    } yield means.zip(sizes).zipWithIndex.map { case ((mean, sz), i) =>
      Sweep.Point(alg.name, 1L << (first + i), 0.0, Seq(mean), mean, sz, 0.0, 0.0)
    }
    for {
      snapshot <- curveGen(Alg.SnapshotAlg, Gen.frequency(1 -> Gen.const(0.0), 2 -> Gen.choose(1.0, 1e3)))
      oneshot <- curveGen(Alg.OneshotAlg, Gen.const(0.0))
      ris <- curveGen(Alg.RisAlg, Gen.choose(1.0, 1e3))
      order <- Gen.long
    } yield Sweep.Result(new scala.util.Random(order).shuffle(snapshot ++ oneshot ++ ris), "0", 0.0)
  }

  /** Paper §5.2.3 by brute force: for each Snapshot point b, the least
    * sample number s₂ of `target` whose mean reaches b's; the lower
    * medians of s₂/s₁ and, over b of positive size, of the size ratio.
    */
  private def bruteForceCells(sweep: Sweep.Result, target: Alg): (Option[Double], Option[Double]) = {
    def lowerMedian(xs: Seq[Double]) = if (xs.isEmpty) None else Some(xs.sorted.apply((xs.size - 1) / 2))
    val targets = sweep.points.filter(_.alg == target.name)
    val pairs = for {
      b <- sweep.points.filter(_.alg == Alg.SnapshotAlg.name)
      reaching = targets.filter(_.meanInfluence >= b.meanInfluence)
      if reaching.nonEmpty
      s2 = reaching.map(_.sampleNumber).min
    } yield (b, targets.find(_.sampleNumber == s2).get)
    (lowerMedian(pairs.map { case (b, t) => t.sampleNumber.toDouble / b.sampleNumber }),
     lowerMedian(pairs.filter(_._1.meanSampleSize > 0.0).map { case (b, t) => t.meanSampleSize / b.meanSampleSize }))
  }

  test("table6Cell and table7Cell equal a brute-force comparable-ratio computation on random curves") {
    val prop = Prop.forAll(randomSweep) { sweep =>
      Tables.table6Cell(sweep) == bruteForceCells(sweep, Alg.OneshotAlg)._1 &&
        Tables.table7Cell(sweep) == bruteForceCells(sweep, Alg.RisAlg)
    }
    val params = SCTest.Parameters.default.withMinSuccessfulTests(2000)
      .withInitialSeed(org.scalacheck.rng.Seed(20200614L))
    val res = SCTest.check(params, prop)
    assert(res.passed, res.status.toString)
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
}
