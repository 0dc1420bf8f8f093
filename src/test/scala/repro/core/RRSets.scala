package repro.core

import java.util.SplittableRandom
import repro.graphs.LocalGraph

/** One RR set at a time (paper Definition 3.1), for tests: the forward
  * cascade [[Ic.simulate]] over `LocalGraph.inEdges` from one target. Each
  * call draws what one set of [[RRCollection.generate]] draws.
  */
object RRSets {

  /** Draws one RR set for the uniformly random target `rng.nextInt(n)`. */
  def generate(g: LocalGraph, rng: SplittableRandom, scratch: SimScratch,
               costs: Costs): Array[Int] =
    generateFor(g, rng.nextInt(g.n), rng, scratch, costs)

  /** Draws one RR set for the fixed target `z`. */
  def generateFor(g: LocalGraph, z: Int, rng: SplittableRandom,
                  scratch: SimScratch, costs: Costs): Array[Int] =
    java.util.Arrays.copyOf(scratch.queue, Ic.simulate(g.inEdges, Array(z), 1, rng, scratch, costs))
}
