package repro.perfbench

import java.util.SplittableRandom
import repro.core.{Costs, Greedy, GreedyResult, InfluenceEstimator}
import repro.graphs.LocalGraph
import repro.spark.{Alg, TrialRunner}
import scala.collection.mutable

/** Named layer metrics (seconds and counts) accumulated over one traced
  * pass, one set-up or one replay. Keys are `<layer>.<metric>`.
  */
final class Trace {
  private val values = mutable.LinkedHashMap.empty[String, Double]

  def add(key: String, v: Double): Unit = values(key) = values.getOrElse(key, 0.0) + v

  def apply(key: String): Double = values.getOrElse(key, 0.0)

  /** Runs `f` and adds its wall time in seconds to `key`. */
  def time[A](key: String)(f: => A): A = {
    val t0 = System.nanoTime()
    try f finally add(key, (System.nanoTime() - t0) / 1e9)
  }

  def toMap: Map[String, Double] = values.toMap
}

/** An estimator wrapped so that the wall time of each of the framework's
  * three procedures is measured from outside; results and costs are the
  * wrapped estimator's own.
  */
final class TimedEstimator(inner: InfluenceEstimator) extends InfluenceEstimator {
  var buildNs = 0L
  var estimateNs = 0L
  var updateNs = 0L

  override def build(rng: SplittableRandom): Unit = {
    val t0 = System.nanoTime()
    inner.build(rng)
    buildNs += System.nanoTime() - t0
  }

  override def estimate(v: Int, rng: SplittableRandom): Double = {
    val t0 = System.nanoTime()
    val e = inner.estimate(v, rng)
    estimateNs += System.nanoTime() - t0
    e
  }

  override def update(v: Int, rng: SplittableRandom): Unit = {
    val t0 = System.nanoTime()
    inner.update(v, rng)
    updateNs += System.nanoTime() - t0
  }

  override def costs: Costs = inner.costs
  override def sampleSize: Long = inner.sampleSize

  def busyNs: Long = buildNs + estimateNs + updateNs
}

/** The core layer measured alone: a single-threaded driver replay of
  * chosen sweep trials, each with the PRNG stream `TrialRunner` gives it.
  */
object CoreReplay {

  /** One trial: trial `trial` of grid point (alg, sampleNumber) whose
    * point seed is `pointSeed`.
    */
  final case class Trial(alg: Alg, sampleNumber: Int, k: Int, pointSeed: Long, trial: Int)

  /** Replays `trials` on `g`, adding `core.*` metrics to `trace`. */
  def run(g: LocalGraph, trials: Seq[Trial], trace: Trace): Seq[GreedyResult] =
    trials.map { t =>
      val est = new TimedEstimator(t.alg.make(g, t.sampleNumber))
      val rng = new SplittableRandom(TrialRunner.mixSeed(t.pointSeed, t.trial.toLong))
      val t0 = System.nanoTime()
      val r = Greedy.run(g.n, t.k, est, rng)
      val totalNs = System.nanoTime() - t0
      val a = s"core.${t.alg.name.toLowerCase}"
      trace.add(s"$a.build_s", est.buildNs / 1e9)
      trace.add(s"$a.estimate_s", est.estimateNs / 1e9)
      trace.add(s"$a.update_s", est.updateNs / 1e9)
      trace.add(s"$a.vertex_cost", r.vertexCost.toDouble)
      trace.add(s"$a.edge_cost", r.edgeCost.toDouble)
      trace.add(s"$a.sample_size", r.sampleSize.toDouble)
      trace.add(s"$a.busy_s", est.busyNs / 1e9)
      if (t.alg == Alg.SnapshotAlg) trace.add("core.snapshot.build_flips", t.sampleNumber.toDouble * g.m)
      trace.add("core.greedy_self_s", (totalNs - est.busyNs) / 1e9)
      r
    }

  /** Adds the derived ratios once all trials are replayed. */
  def derive(trace: Trace): Unit = {
    for (alg <- Alg.all) {
      val a = s"core.${alg.name.toLowerCase}"
      val trav = trace(s"$a.vertex_cost") + trace(s"$a.edge_cost")
      if (trav > 0) trace.add(s"$a.ns_per_trav", trace(s"$a.busy_s") * 1e9 / trav)
    }
    val flips = trace("core.snapshot.build_flips")
    if (flips > 0) trace.add("core.snapshot.ns_per_flip", trace("core.snapshot.build_s") * 1e9 / flips)
  }
}
