package repro.perfbench

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Greedy, GreedyResult}
import repro.graphs.{GraphGen, ProbModel}
import repro.spark.{Alg, TrialRunner}

class TimedEstimatorSpec extends AnyFunSuite {

  private val g = ProbModel.assign(GraphGen.karate(), ProbModel.IWC)

  private def fields(r: GreedyResult) =
    (r.seeds.toSeq, r.estimates.toSeq, r.vertexCost, r.edgeCost, r.sampleSize)

  for (alg <- Alg.all; k <- Seq(1, 4)) test(s"wrapped ${alg.name} gives the unwrapped GreedyResult, k=$k") {
    val plain = Greedy.run(g.n, k, alg.make(g, 16), new SplittableRandom(7))
    val est = new TimedEstimator(alg.make(g, 16))
    val wrapped = Greedy.run(g.n, k, est, new SplittableRandom(7))
    assert(fields(wrapped) == fields(plain))
    assert(est.busyNs > 0)
    if (k == 1) assert(est.updateNs == 0) // no Update after the final seed
  }

  test("replay reproduces TrialRunner's per-trial PRNG stream and records core counts") {
    val pointSeed = 99L
    val trials = Seq(CoreReplay.Trial(Alg.SnapshotAlg, 8, 2, pointSeed, trial = 3))
    val trace = new Trace
    val Seq(r) = CoreReplay.run(g, trials, trace)
    val direct = Greedy.run(g.n, 2, Alg.SnapshotAlg.make(g, 8),
                            new SplittableRandom(TrialRunner.mixSeed(pointSeed, 3L)))
    assert(fields(r) == fields(direct))
    assert(trace("core.snapshot.vertex_cost") == direct.vertexCost)
    assert(trace("core.snapshot.edge_cost") == direct.edgeCost)
    assert(trace("core.snapshot.sample_size") == direct.sampleSize)
    assert(trace("core.snapshot.build_flips") == 8.0 * g.m)
    CoreReplay.derive(trace)
    assert(trace("core.snapshot.ns_per_trav") > 0)
    assert(trace("core.snapshot.ns_per_flip") > 0)
  }
}
