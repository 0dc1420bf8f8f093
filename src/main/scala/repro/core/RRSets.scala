package repro.core

import java.util.SplittableRandom
import repro.graphs.{InEdges, LocalGraph}

/** Reverse-reachable set generation (paper Definition 3.1 and §3.5).
  *
  * An RR set for a uniformly random target z is the set of vertices that can
  * reach z in a live-edge random graph G ~ 𝒢, generated lazily by a reverse
  * BFS that flips one coin per examined in-edge (`rng`'s own draws, run in
  * locals by [[SplitMix]] against the thresholds of `InEdges`). Used both by
  * the [[Ris]] estimator and by the shared influence-evaluation oracle of
  * §5.2.
  */
object RRSets {

  /** Draws one RR set for a uniformly random target.
    *
    * Cost accounting follows §3.5.2: each vertex added to the set costs one
    * vertex traversal, and each examined in-edge of a member costs one edge
    * traversal — so the edge cost of a set R is exactly its weight
    * w(R) = Σ_{v∈R} d⁻(v).
    */
  def generate(g: LocalGraph, rng: SplittableRandom, scratch: SimScratch,
               costs: Costs): Array[Int] =
    java.util.Arrays.copyOf(scratch.queue, draw(g.inEdges, rng, scratch, costs))

  /** [[generate]] without the copy: the set is left in
    * `scratch.queue(0 until len)` and `len` is returned.
    */
  def draw(in: InEdges, rng: SplittableRandom, scratch: SimScratch,
           costs: Costs): Int =
    search(in, rng.nextInt(in.n), rng, scratch, costs)

  /** Draws one RR set for the fixed target `z`. */
  def generateFor(g: LocalGraph, z: Int, rng: SplittableRandom,
                  scratch: SimScratch, costs: Costs): Array[Int] =
    java.util.Arrays.copyOf(scratch.queue, search(g.inEdges, z, rng, scratch, costs))

  private def search(in: InEdges, z: Int, rng: SplittableRandom,
                     scratch: SimScratch, costs: Costs): Int = {
    scratch.reset()
    val mark = scratch.mark
    val stamp = scratch.stamp
    val queue = scratch.queue
    val offsets = in.offsets
    val src = in.src
    val threshold = in.threshold
    val gamma = SplitMix.gamma(rng)
    var state = SplitMix.seed(rng)
    mark(z) = stamp
    queue(0) = z
    var head = 0
    var tail = 1
    var edges = 0L
    while (head < tail) {
      val v = queue(head); head += 1
      var e = offsets(v)
      val end = offsets(v + 1)
      edges += end - e
      while (e < end) {
        state += gamma
        if ((SplitMix.mix64(state) >>> 11) < threshold(e)) {
          val u = src(e)
          if (mark(u) != stamp) {
            mark(u) = stamp
            queue(tail) = u; tail += 1
          }
        }
        e += 1
      }
    }
    SplitMix.setSeed(rng, state)
    costs.vertex += tail
    costs.edge += edges
    tail
  }
}
