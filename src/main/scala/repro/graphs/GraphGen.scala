package repro.graphs

import java.util.SplittableRandom
import scala.collection.mutable.ArrayBuffer

/** Deterministic network generators for the paper's eight test networks.
  *
  * Zachary's Karate club is public and hardcoded verbatim. The SNAP/KONECT
  * networks (Physicians, ca-GrQc, Wiki-Vote, com-Youtube, soc-Pokec) are not
  * downloadable in this sealed environment, so each is replaced by a
  * synthetic surrogate that matches its vertex count, edge count, direction
  * semantics, and degree skew — see DESIGN.md §3 for the substitution table.
  * All generators are deterministic in their seed.
  */
object GraphGen {

  /** Zachary's Karate club [42]: 34 vertices, 78 undirected edges, listed
    * 1-indexed as in the canonical dataset. The paper uses the directed
    * version with both orientations (m = 156, Δ⁺ = Δ⁻ = 17).
    */
  val karateUndirectedEdges1Indexed: Seq[(Int, Int)] = Seq(
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 11),
    (1, 12), (1, 13), (1, 14), (1, 18), (1, 20), (1, 22), (1, 32),
    (2, 3), (2, 4), (2, 8), (2, 14), (2, 18), (2, 20), (2, 22), (2, 31),
    (3, 4), (3, 8), (3, 9), (3, 10), (3, 14), (3, 28), (3, 29), (3, 33),
    (4, 8), (4, 13), (4, 14),
    (5, 7), (5, 11),
    (6, 7), (6, 11), (6, 17),
    (7, 17),
    (9, 31), (9, 33), (9, 34),
    (10, 34),
    (14, 34),
    (15, 33), (15, 34),
    (16, 33), (16, 34),
    (19, 33), (19, 34),
    (20, 34),
    (21, 33), (21, 34),
    (23, 33), (23, 34),
    (24, 26), (24, 28), (24, 30), (24, 33), (24, 34),
    (25, 26), (25, 28), (25, 32),
    (26, 32),
    (27, 30), (27, 34),
    (28, 34),
    (29, 32), (29, 34),
    (30, 33), (30, 34),
    (31, 33), (31, 34),
    (32, 33), (32, 34),
    (33, 34),
  )

  /** Karate as a directed graph with both edge orientations. */
  def karate(): LocalGraph = {
    val edges = karateUndirectedEdges1Indexed.flatMap { case (a, b) =>
      Seq((a - 1, b - 1), (b - 1, a - 1))
    }
    LocalGraph.fromEdges(34, edges)
  }

  /** Barabási–Albert preferential attachment [1, 4]: starts from `m0 = bigM`
    * isolated vertices; every later vertex attaches to `min(bigM, existing)`
    * distinct earlier vertices chosen with probability proportional to
    * degree (uniform while no edges exist yet). Returns undirected edges
    * (u, v) with u, v in insertion order.
    */
  def barabasiAlbertEdges(n: Int, bigM: Int, seed: Long): Seq[(Int, Int)] = {
    require(n > bigM && bigM >= 1, s"need n > M >= 1, got n=$n M=$bigM")
    val rng = new SplittableRandom(seed)
    // Repeated-endpoint list: sampling uniformly from it is degree-biased.
    val endpoints = new ArrayBuffer[Int](2 * n * bigM)
    val edges = new ArrayBuffer[(Int, Int)](n * bigM)
    for (t <- bigM until n) {
      val targets = scala.collection.mutable.Set.empty[Int]
      val want = math.min(bigM, t)
      var guard = 0
      while (targets.size < want && guard < 100 * want) {
        val cand =
          if (endpoints.isEmpty) rng.nextInt(t)
          else endpoints(rng.nextInt(endpoints.size))
        if (cand != t) targets += cand
        guard += 1
      }
      // Degenerate fall-back (can only trigger on pathological small cases):
      var fill = 0
      while (targets.size < want) { if (fill != t) targets += fill; fill += 1 }
      targets.foreach { v =>
        edges += ((t, v))
        endpoints += t; endpoints += v
      }
    }
    edges.toSeq
  }

  /** BA graph with one uniformly random orientation per edge, as the paper
    * builds BA_s (n=1000, M=1) and BA_d (n=1000, M=11).
    */
  def baRandomlyOriented(n: Int, bigM: Int, seed: Long): LocalGraph = {
    val rng = new SplittableRandom(seed + 0x9e3779b97f4a7c15L)
    val directed = barabasiAlbertEdges(n, bigM, seed).map { case (a, b) =>
      if (rng.nextBoolean()) (a, b) else (b, a)
    }
    LocalGraph.fromEdges(n, directed)
  }

  /** BA graph with both orientations per edge (undirected semantics), used
    * for the com-Youtube surrogate.
    */
  def baBothDirections(n: Int, bigM: Int, seed: Long): LocalGraph = {
    val edges = barabasiAlbertEdges(n, bigM, seed).flatMap { case (a, b) =>
      Seq((a, b), (b, a))
    }
    LocalGraph.fromEdges(n, edges)
  }

  /** Clique-community graph: partitions vertices into random small cliques
    * (the co-authorship "paper" groups that give collaboration networks
    * their high clustering coefficient) and adds `extraEdges` inter-clique
    * edges with preferential endpoints (hubs). Both orientations are
    * emitted. The surrogate for ca-GrQc.
    */
  def cliqueCommunity(n: Int, cliqueMin: Int, cliqueMax: Int, extraEdges: Int,
                      seed: Long): LocalGraph = {
    require(cliqueMin >= 2 && cliqueMax >= cliqueMin && n > cliqueMax)
    val rng = new SplittableRandom(seed)
    val und = scala.collection.mutable.Set.empty[(Int, Int)]
    def add(a: Int, b: Int): Boolean =
      a != b && und.add((math.min(a, b), math.max(a, b)))
    // Cliques over a random permutation of the vertices.
    val perm = Array.tabulate(n)(identity)
    var pi = n - 1
    while (pi > 0) {
      val pj = rng.nextInt(pi + 1)
      val t = perm(pi); perm(pi) = perm(pj); perm(pj) = t
      pi -= 1
    }
    var i = 0
    while (i < n) {
      val size = math.min(n - i, cliqueMin + rng.nextInt(cliqueMax - cliqueMin + 1))
      for (a <- i until i + size; b <- a + 1 until i + size) add(perm(a), perm(b))
      i += size
    }
    // Inter-clique edges with preferential attachment *among themselves*
    // (not diluted by the uniform clique degrees), so prolific authors
    // emerge as hubs like the real collaboration network's Δ = 81.
    val hubEndpoints = new ArrayBuffer[Int](3 * extraEdges)
    var added = 0
    var guard = 0
    while (added < extraEdges && guard < 100 * extraEdges) {
      guard += 1
      val a = rng.nextInt(n)
      val b = if (hubEndpoints.isEmpty || rng.nextDouble() < 0.25) rng.nextInt(n)
              else hubEndpoints(rng.nextInt(hubEndpoints.size))
      if (add(a, b)) {
        hubEndpoints += a; hubEndpoints += b; hubEndpoints += b
        added += 1
      }
    }
    LocalGraph.fromEdges(n, und.toSeq.sorted.flatMap { case (a, b) => Seq((a, b), (b, a)) })
  }

  /** Directed preferential-attachment multigraph-free generator: draws `m`
    * distinct directed edges where the source is picked uniformly with
    * probability `srcUniform` (else out-degree-biased) and the target
    * uniformly with probability `dstUniform` (else in-degree-biased).
    * Produces hub-heavy directed graphs — the surrogate for Wiki-Vote and
    * soc-Pokec.
    */
  def directedPA(n: Int, m: Int, srcUniform: Double, dstUniform: Double,
                 seed: Long): LocalGraph = {
    require(m.toLong <= n.toLong * (n - 1), s"m=$m too large for n=$n")
    val rng = new SplittableRandom(seed)
    val outEndpoints = new ArrayBuffer[Int](m)
    val inEndpoints  = new ArrayBuffer[Int](m)
    val seen = new java.util.HashSet[Long](m * 2)
    val edges = new ArrayBuffer[(Int, Int)](m)
    while (edges.size < m) {
      val u =
        if (outEndpoints.isEmpty || rng.nextDouble() < srcUniform) rng.nextInt(n)
        else outEndpoints(rng.nextInt(outEndpoints.size))
      val v =
        if (inEndpoints.isEmpty || rng.nextDouble() < dstUniform) rng.nextInt(n)
        else inEndpoints(rng.nextInt(inEndpoints.size))
      val key = u.toLong * n + v
      if (u != v && !seen.contains(key)) {
        seen.add(key)
        edges += ((u, v))
        outEndpoints += u
        inEndpoints += v
      }
    }
    LocalGraph.fromEdges(n, edges.toSeq)
  }

  /** Surrogate for the Physicians advice network: every vertex names a small
    * bounded number of colleagues (out-degree ≤ `maxOut`, as in the original
    * survey where physicians listed up to ~9 contacts) and popular
    * physicians accumulate in-degree preferentially.
    */
  def boundedOutDegreePA(n: Int, mTarget: Int, maxOut: Int, seed: Long): LocalGraph = {
    require(mTarget <= n * maxOut, s"cannot fit $mTarget edges with out-degree cap $maxOut")
    val rng = new SplittableRandom(seed)
    // Randomised out-degree plan in [1, maxOut], adjusted to hit mTarget —
    // physicians named between one and maxOut colleagues each.
    val outDeg = Array.fill(n)(1 + rng.nextInt(maxOut))
    var sum = outDeg.sum
    while (sum != mTarget) {
      val v = rng.nextInt(n)
      if (sum > mTarget && outDeg(v) > 1) { outDeg(v) -= 1; sum -= 1 }
      else if (sum < mTarget && outDeg(v) < maxOut) { outDeg(v) += 1; sum += 1 }
    }
    val inEndpoints = new ArrayBuffer[Int](mTarget)
    val edges = new ArrayBuffer[(Int, Int)](mTarget)
    val seen = new java.util.HashSet[Long](mTarget * 2)
    for (u <- 0 until n) {
      var made = 0
      var guard = 0
      while (made < outDeg(u) && guard < 1000 * maxOut) {
        guard += 1
        val v =
          if (inEndpoints.isEmpty || rng.nextDouble() < 0.55) rng.nextInt(n)
          else inEndpoints(rng.nextInt(inEndpoints.size))
        val key = u.toLong * n + v
        if (v != u && !seen.contains(key)) {
          seen.add(key)
          edges += ((u, v))
          inEndpoints += v
          made += 1
        }
      }
    }
    LocalGraph.fromEdges(n, edges.toSeq)
  }
}
