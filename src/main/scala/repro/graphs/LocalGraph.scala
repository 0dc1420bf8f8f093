package repro.graphs

/** Compact directed influence graph in CSR form, with both forward and
  * reverse adjacency so that forward diffusion (Oneshot/Snapshot) and
  * reverse reachability (RIS) are cache-friendly array walks.
  *
  * The graph is exactly its two [[LiveEdges]] directions: each edge's
  * weight is stored once per direction, as the live-edge threshold
  * ⌈p·2⁵³⌉ that the kernels test, and no probability array is kept. That
  * is 4 + 8 bytes per edge per direction plus 4(n + 1) bytes of offsets.
  * The graph is immutable and `Serializable`; the trial runner broadcasts
  * one instance, thresholds included, to all Spark executors and every
  * sampling kernel runs against it locally. The RR-set oracle reads
  * [[inEdges]] on the driver.
  *
  * @param n        number of vertices, ids are `0 until n`
  * @param outEdges the forward adjacency, grouped by source: what the
  *                 forward IC kernel and the Snapshot build read
  * @param inEdges  the reverse adjacency, grouped by destination: what
  *                 RR-set generation reads
  */
final class LocalGraph(val n: Int, val outEdges: LiveEdges, val inEdges: LiveEdges)
    extends Serializable {
  require(outEdges.n == n && inEdges.n == n,
          s"directions have ${outEdges.n} (out) and ${inEdges.n} (in) vertices, graph has $n")
  require(outEdges.m == inEdges.m,
          s"directions have ${outEdges.m} (out) and ${inEdges.m} (in) edges")

  /** CSR row offsets of the out-edges, length n+1. */
  def outOffsets: Array[Int] = outEdges.offsets

  /** Destination vertex of each out-edge, grouped by source. */
  def outDst: Array[Int] = outEdges.adj

  /** Whether `o` is this instance or has equal arrays in both directions. */
  def sameAs(o: LocalGraph): Boolean =
    (this eq o) || n == o.n && outEdges.sameAs(o.outEdges) && inEdges.sameAs(o.inEdges)

  /** Number of directed edges. */
  def m: Int = outEdges.m

  /** Out-degree of vertex `v`. */
  def outDeg(v: Int): Int = outOffsets(v + 1) - outOffsets(v)

  /** In-degree of vertex `v`. */
  def inDeg(v: Int): Int = inEdges.offsets(v + 1) - inEdges.offsets(v)

  /** Maximum out-degree (Δ⁺ in the paper's Table 3); 0 on the empty graph. */
  def maxOutDeg: Int = (0 until n).foldLeft(0)((a, v) => math.max(a, outDeg(v)))

  /** Maximum in-degree (Δ⁻ in the paper's Table 3); 0 on the empty graph. */
  def maxInDeg: Int = (0 until n).foldLeft(0)((a, v) => math.max(a, inDeg(v)))

  /** Sum of all effective edge probabilities, m̃ = Σₑ p(e) — the expected
    * number of live edges in a random graph G ~ 𝒢 (paper Table 1).
    */
  def mTilde: Double = {
    val t = outEdges.threshold
    var s = 0.0; var i = 0
    while (i < t.length) { s += LocalGraph.prob(t(i)); i += 1 }
    s
  }

  /** All edges as (src, dst, p) triples in CSR order, p being the
    * effective probability [[LocalGraph.prob]] of the edge's threshold.
    */
  def edges: IndexedSeq[(Int, Int, Double)] =
    for (u <- 0 until n; i <- outOffsets(u) until outOffsets(u + 1))
      yield (u, outDst(i), LocalGraph.prob(outEdges.threshold(i)))

  /** Returns a copy with every edge probability replaced by `f(u, v)`,
    * which must lie in [0,1]. The copy shares this graph's offsets and
    * adjacency arrays.
    */
  def withProbs(f: (Int, Int) => Double): LocalGraph = {
    def prob(u: Int, v: Int): Double = {
      val p = f(u, v)
      require(p >= 0.0 && p <= 1.0, s"probability $p of edge ($u,$v) outside [0,1]")
      p
    }
    // `e` with the threshold of p(row vertex, other endpoint) on each edge.
    def reweighed(e: LiveEdges, p: (Int, Int) => Double): LiveEdges = {
      val t = new Array[Long](e.m)
      var r = 0
      while (r < n) {
        var i = e.offsets(r)
        while (i < e.offsets(r + 1)) { t(i) = LocalGraph.threshold(p(r, e.adj(i))); i += 1 }
        r += 1
      }
      new LiveEdges(n, e.offsets, e.adj, t)
    }
    new LocalGraph(n, reweighed(outEdges, prob), reweighed(inEdges, (v, u) => prob(u, v)))
  }
}

object LocalGraph {

  /** ⌈p·2⁵³⌉, the live-edge threshold of probability p. A uniform draw
    * `nextDouble` = k·2⁻⁵³ from a 53-bit integer k is below p iff k is
    * below this: k·2⁻⁵³ < p ⇔ k < p·2⁵³ ⇔ k < ⌈p·2⁵³⌉, and p·2⁵³ is exact
    * in a double.
    */
  def threshold(p: Double): Long = math.ceil(p * TwoPow53).toLong

  /** t·2⁻⁵³, the effective probability of threshold `t`: the probability
    * with which the kernels make an edge live. For t = [[threshold]](p) it
    * is at most 2⁻⁵³ above p, and equal to p when p·2⁵³ is an integer;
    * `threshold(prob(t)) == t` for t in [0, 2⁵³].
    */
  def prob(t: Long): Double = t / TwoPow53

  private final val TwoPow53 = 9007199254740992.0

  /** Builds a graph from a directed edge list with unit probability.
    * Duplicate edges are kept (multigraph semantics, as in raw edge lists);
    * callers that need simple graphs should dedupe first.
    */
  def fromEdges(n: Int, edges: Seq[(Int, Int)]): LocalGraph =
    fromWeightedEdges(n, edges.map { case (u, v) => (u, v, 1.0) })

  /** Builds a graph from a directed edge list with per-edge probabilities. */
  def fromWeightedEdges(n: Int, edges: Seq[(Int, Int, Double)]): LocalGraph = {
    val m = edges.size
    edges.foreach { case (u, v, p) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
      require(p >= 0.0 && p <= 1.0, s"probability $p of edge ($u,$v) outside [0,1]")
    }
    val outOff = new Array[Int](n + 1)
    val inOff  = new Array[Int](n + 1)
    edges.foreach { case (u, v, _) => outOff(u + 1) += 1; inOff(v + 1) += 1 }
    var i = 0
    while (i < n) { outOff(i + 1) += outOff(i); inOff(i + 1) += inOff(i); i += 1 }
    val outDst = new Array[Int](m); val outT = new Array[Long](m)
    val inSrc  = new Array[Int](m); val inT  = new Array[Long](m)
    val outPos = outOff.clone(); val inPos = inOff.clone()
    edges.foreach { case (u, v, p) =>
      val t = threshold(p)
      outDst(outPos(u)) = v; outT(outPos(u)) = t; outPos(u) += 1
      inSrc(inPos(v)) = u; inT(inPos(v)) = t; inPos(v) += 1
    }
    new LocalGraph(n, new LiveEdges(n, outOff, outDst, outT),
                   new LiveEdges(n, inOff, inSrc, inT))
  }
}

/** One direction of a [[LocalGraph]]'s adjacency with its live-edge
  * thresholds, in CSR form: what a live-edge cascade reads. The out-edges
  * give forward IC; the in-edges give RR sets, the forward cascade on the
  * transposed graph. `Serializable`, so a broadcast graph ships its
  * thresholds. It stores 4 + 8 bytes per edge plus 4(n + 1) bytes of
  * offsets.
  *
  * @param n         number of vertices, ids are `0 until n`
  * @param offsets   CSR row offsets into `adj`/`threshold`, length n+1,
  *                  from 0 to the edge count
  * @param adj       the other endpoint of each edge, grouped by row vertex
  * @param threshold [[LocalGraph.threshold]] of each edge's probability
  */
final class LiveEdges(val n: Int, val offsets: Array[Int], val adj: Array[Int],
                      val threshold: Array[Long]) extends Serializable {
  require(n >= 0 && offsets.length == n + 1,
          s"${offsets.length} offsets for $n vertices, need n + 1")
  require(offsets(0) == 0, s"offsets start at ${offsets(0)}, not 0")
  require(offsets(n) == adj.length && adj.length == threshold.length,
          s"offsets end at ${offsets(n)}, with ${adj.length} endpoints and " +
          s"${threshold.length} thresholds; all three must be the edge count")

  /** Number of edges. */
  def m: Int = adj.length

  /** Whether `o` has equal `n`, offsets, endpoints and thresholds. */
  def sameAs(o: LiveEdges): Boolean =
    n == o.n && java.util.Arrays.equals(offsets, o.offsets) &&
      java.util.Arrays.equals(adj, o.adj) && java.util.Arrays.equals(threshold, o.threshold)
}
