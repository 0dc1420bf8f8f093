package repro.core

import java.util.SplittableRandom
import repro.graphs.LocalGraph

/** Naive Oneshot estimator (paper Algorithm 3.2, a.k.a. simulation-based).
  *
  * `Build` and `Update` do nothing beyond bookkeeping; every `Estimate`
  * runs β fresh Monte-Carlo IC simulations from S+v and averages the
  * activation counts. The estimate is unbiased but — unlike Snapshot —
  * neither monotone nor submodular across calls, since each call draws
  * independent randomness (§3.3.1).
  *
  * Sample size is 0: nothing persists between estimates (the transient
  * |A≤n| ≤ n activation buffer is explicitly not counted, §3.3.2).
  *
  * @param g    influence graph
  * @param beta sample number β = number of simulations per estimate
  */
final class Oneshot(g: LocalGraph, beta: Int) extends InfluenceEstimator {
  require(beta >= 1, s"beta=$beta must be >= 1")

  private val scratch = new SimScratch(g.n)
  private val costsAcc = new Costs
  private var seedCount = 0
  private val seedBuf = new Array[Int](g.n + 1)

  override def build(rng: SplittableRandom): Unit = ()

  override def estimate(v: Int, rng: SplittableRandom): Double = {
    seedBuf(seedCount) = v
    var total = 0L
    var i = 0
    while (i < beta) {
      total += Ic.simulate(g.outEdges, seedBuf, seedCount + 1, rng, scratch, costsAcc)
      i += 1
    }
    total.toDouble / beta
  }

  override def update(v: Int, rng: SplittableRandom): Unit = {
    seedBuf(seedCount) = v
    seedCount += 1
  }

  override def costs: Costs = costsAcc
  override def sampleSize: Long = 0L
}
