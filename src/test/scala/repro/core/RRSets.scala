package repro.core

import java.util.SplittableRandom
import repro.graphs.LocalGraph

/** One RR set at a time (paper Definition 3.1), for tests: the forward
  * cascade [[Ic.simulate]] over `LocalGraph.inEdges` from one target. Each
  * call draws what one set of [[RRCollection.generate]] draws. Also the
  * test-side reading of an [[RRCollection.Index]].
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

  /** Each vertex's set ids, decoded page by page from a paged index. */
  def lists(index: RRCollection.Index): Seq[Seq[Int]] =
    (0 until index.n).map { v =>
      (0 until index.pages).flatMap { p =>
        val at = v * index.pages + p
        index.ids.slice(index.offsets(at), index.offsets(at + 1)).map(p * RRCollection.PageSize + _)
      }
    }
}
