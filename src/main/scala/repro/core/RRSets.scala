package repro.core

import java.util.SplittableRandom
import repro.graphs.LocalGraph

/** Reverse-reachable set generation (paper Definition 3.1 and §3.5).
  *
  * An RR set for a uniformly random target z is the set of vertices that can
  * reach z in a live-edge random graph G ~ 𝒢, generated lazily by a reverse
  * BFS that flips one coin per examined in-edge. Used both by the [[Ris]]
  * estimator and by the shared influence-evaluation oracle of §5.2.
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
    java.util.Arrays.copyOf(scratch.queue, draw(g, rng, scratch, costs))

  /** [[generate]] without the copy: the set is left in
    * `scratch.queue(0 until len)` and `len` is returned.
    */
  def draw(g: LocalGraph, rng: SplittableRandom, scratch: SimScratch,
           costs: Costs): Int =
    search(g, rng.nextInt(g.n), rng, scratch, costs)

  /** Draws one RR set for the fixed target `z`. */
  def generateFor(g: LocalGraph, z: Int, rng: SplittableRandom,
                  scratch: SimScratch, costs: Costs): Array[Int] =
    java.util.Arrays.copyOf(scratch.queue, search(g, z, rng, scratch, costs))

  private def search(g: LocalGraph, z: Int, rng: SplittableRandom,
                     scratch: SimScratch, costs: Costs): Int = {
    scratch.reset()
    scratch.visit(z)
    scratch.queue(0) = z
    var head = 0
    var tail = 1
    while (head < tail) {
      val v = scratch.queue(head); head += 1
      costs.vertex += 1
      var e = g.inOffsets(v)
      val end = g.inOffsets(v + 1)
      while (e < end) {
        costs.edge += 1
        val u = g.inSrc(e)
        val live = rng.nextDouble() < g.inProb(e)
        if (live && !scratch.visited(u)) {
          scratch.visit(u)
          scratch.queue(tail) = u; tail += 1
        }
        e += 1
      }
    }
    tail
  }
}
