package repro.core

import java.util.SplittableRandom
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.graphs.LocalGraph

/** Gates of the in-locals SplitMix64 stream: it is the stream of
  * `java.util.SplittableRandom`, the integer live-edge test is the
  * `nextDouble() < p` test, and the kernels built on both equal the
  * reference kernels of [[ReferenceKernels]] draw for draw.
  */
class SplitMixSpec extends AnyFunSuite {

  private val Unit53 = 1.0 / 9007199254740992.0 // 2⁻⁵³, the JDK's DOUBLE_UNIT

  private def check(prop: Prop, minSuccessful: Int = 100): Unit = {
    val params = SCTest.Parameters.default
      .withMinSuccessfulTests(minSuccessful)
      .withInitialSeed(org.scalacheck.rng.Seed(20200614L))
    val res = SCTest.check(params, prop)
    assert(res.passed, res.status.toString)
  }

  /** Two `SplittableRandom`s in the same state. With `split`, both are
    * children from `split()`, whose gamma is not the golden one of a
    * seeded instance.
    */
  private def twins(seed: Long, split: Boolean): (SplittableRandom, SplittableRandom) =
    if (split) (new SplittableRandom(seed).split(), new SplittableRandom(seed).split())
    else (new SplittableRandom(seed), new SplittableRandom(seed))

  private val specialProbs: Seq[Double] =
    Seq(0.0, 1.0, Unit53, 1.0 - Unit53, 0.1, 0.01, 1.0 / 3, 1.0 / 7, 0.5)

  private val probGen: Gen[Double] =
    Gen.frequency(1 -> Gen.oneOf(specialProbs), 2 -> Gen.choose(0.0, 1.0))

  /** Random multigraphs with self-loops, with per-edge probabilities from
    * `probGen` or IWC's 1/d⁻(v).
    */
  private val graphGen: Gen[LocalGraph] = for {
    n <- Gen.choose(1, 24)
    m <- Gen.choose(0, 90)
    ends <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    probs <- Gen.listOfN(m, probGen)
    iwc <- Gen.oneOf(false, true)
  } yield {
    val g = LocalGraph.fromWeightedEdges(n,
      ends.zip(probs).map { case ((u, v), p) => (u, v, p) })
    if (iwc) g.withProbs((_, v) => 1.0 / g.inDeg(v)) else g
  }

  private def sameCosts(a: Costs, b: Costs): Boolean =
    a.vertex == b.vertex && a.edge == b.edge

  test("the stream in locals equals SplittableRandom's nextLong and nextDouble, and resumes it") {
    check(Prop.forAll(Gen.long, Gen.oneOf(false, true), Gen.choose(0, 300)) {
      (seed, split, draws) =>
        val (rng, twin) = twins(seed, split)
        val gamma = SplitMix.gamma(rng)
        var state = SplitMix.seed(rng)
        var same = true
        var i = 0
        while (i < draws) {
          state += gamma
          val z = SplitMix.mix64(state)
          same &&= (if (i % 2 == 0) z == twin.nextLong()
                    else (z >>> 11) * Unit53 == twin.nextDouble())
          i += 1
        }
        SplitMix.setSeed(rng, state)
        same && rng.nextLong() == twin.nextLong() &&
          rng.nextInt(1000) == twin.nextInt(1000) && rng.nextDouble() == twin.nextDouble()
    })
  }

  test("split instances carry a non-golden gamma") {
    val golden = SplitMix.gamma(new SplittableRandom(1L))
    assert(golden == 0x9e3779b97f4a7c15L)
    assert(SplitMix.gamma(new SplittableRandom(1L).split()) != golden)
  }

  test("(z >>> 11) < threshold(p) iff nextDouble < p, at the special p and the boundary draws") {
    val cases = specialProbs ++ Seq(1.0 / 733, 1.0 / 403, 3e-300, 1e-15)
    for (p <- cases) {
      val t = LocalGraph.threshold(p)
      assert(t >= 0 && t <= (1L << 53), s"p=$p threshold $t")
      for (k <- Seq(t - 1, t, t + 1, 0L, (1L << 53) - 1) if k >= 0 && k < (1L << 53))
        assert((k < t) == (k * Unit53 < p), s"p=$p k=$k threshold=$t")
    }
    assert(LocalGraph.threshold(0.0) == 0L)
    assert(LocalGraph.threshold(1.0) == (1L << 53))
    assert(LocalGraph.threshold(Unit53) == 1L)
  }

  test("(z >>> 11) < threshold(p) iff nextDouble < p, at random p and random draws") {
    check(Prop.forAll(probGen, Gen.long) { (p, seed) =>
      val t = LocalGraph.threshold(p)
      val (rng, twin) = twins(seed, split = false)
      val gamma = SplitMix.gamma(rng)
      val state = SplitMix.seed(rng) + gamma
      val boundary = Seq(t - 1, t).filter(k => k >= 0 && k < (1L << 53))
      ((SplitMix.mix64(state) >>> 11) < t) == (twin.nextDouble() < p) &&
        boundary.forall(k => (k < t) == (k * Unit53 < p))
    }, minSuccessful = 2000)
  }

  test("Ic.simulate equals the reference kernel: activations, costs and the next draw") {
    check(Prop.forAll(graphGen, Gen.long, Gen.oneOf(false, true)) { (g, seed, split) =>
      val (rng, twin) = twins(seed, split)
      val picks = new SplittableRandom(~seed)
      val (sa, sb) = (new SimScratch(g.n), new SimScratch(g.n))
      val (ca, cb) = (new Costs, new Costs)
      (0 until 6).forall { _ =>
        val seeds = Array.fill(1 + picks.nextInt(3))(picks.nextInt(g.n))
        val a = Ic.simulate(g.outEdges, seeds, seeds.length, rng, sa, ca)
        val b = ReferenceKernels.simulate(g.outEdges, seeds, seeds.length, twin, sb, cb)
        a == b && sa.queue.take(a).sameElements(sb.queue.take(b)) &&
          rng.nextInt(g.n) == twin.nextInt(g.n)
      } && sameCosts(ca, cb) && rng.nextLong() == twin.nextLong()
    })
  }

  test("RR-set search equals the reference kernel: sets, costs and the next draw") {
    check(Prop.forAll(graphGen, Gen.long, Gen.oneOf(false, true)) { (g, seed, split) =>
      val (rng, twin) = twins(seed, split)
      val (sa, sb) = (new SimScratch(g.n), new SimScratch(g.n))
      val (ca, cb) = (new Costs, new Costs)
      // The reference cascade over the in-edges from z is the RR set of z.
      def reference(z: Int): Array[Int] =
        sb.queue.take(ReferenceKernels.simulate(g.inEdges, Array(z), 1, twin, sb, cb))
      (0 until g.n).forall { z =>
        RRSets.generateFor(g, z, rng, sa, ca).sameElements(reference(z))
      } && (0 until 6).forall { _ =>
        RRSets.generate(g, rng, sa, ca).sameElements(reference(twin.nextInt(g.n)))
      } && sameCosts(ca, cb) && rng.nextLong() == twin.nextLong()
    })
  }

  test("Snapshot equals the reference estimator: greedy run, costs, sample size and the next draw") {
    check(Prop.forAll(graphGen, Gen.long, Gen.oneOf(false, true), Gen.choose(1, 16)) {
      (g, seed, split, tau) =>
        val (rng, twin) = twins(seed, split)
        val k = math.min(3, g.n)
        val a = Greedy.run(g.n, k, new Snapshot(g, tau), rng)
        val b = Greedy.run(g.n, k, new ReferenceKernels.Snapshot(g, tau), twin)
        a.seeds.sameElements(b.seeds) && a.estimates.sameElements(b.estimates) &&
          a.vertexCost == b.vertexCost && a.edgeCost == b.edgeCost &&
          a.sampleSize == b.sampleSize && rng.nextLong() == twin.nextLong()
    })
  }
}
