package repro.graphs

/** Compact directed influence graph in CSR form, with both forward and
  * reverse adjacency so that forward diffusion (Oneshot/Snapshot) and
  * reverse reachability (RIS) are cache-friendly array walks.
  *
  * The graph is immutable and `Serializable`; the trial runner broadcasts
  * one instance to all Spark executors and every sampling kernel runs
  * against it locally; its [[LiveEdges]] directions are `@transient`, so
  * each JVM rebuilds them. The RR-set oracle reads [[inEdges]] on the driver.
  *
  * @param n          number of vertices, ids are `0 until n`
  * @param outOffsets CSR row offsets into `outDst`/`outProb`, length n+1
  * @param outDst     destination vertex of each out-edge, grouped by source
  * @param outProb    influence probability p(u,v) of each out-edge
  * @param inOffsets  CSR row offsets into `inSrc`/`inProb`, length n+1
  * @param inSrc      source vertex of each in-edge, grouped by destination
  * @param inProb     influence probability of each in-edge
  */
final class LocalGraph(
    val n: Int,
    val outOffsets: Array[Int],
    val outDst: Array[Int],
    val outProb: Array[Double],
    val inOffsets: Array[Int],
    val inSrc: Array[Int],
    val inProb: Array[Double],
) extends Serializable {

  /** The forward adjacency as [[LiveEdges]]: what the forward IC kernel
    * and the Snapshot build read. Built on first use, never serialized.
    */
  @transient lazy val outEdges: LiveEdges =
    new LiveEdges(n, outOffsets, outDst, outProb.map(LocalGraph.threshold))

  /** The reverse adjacency as [[LiveEdges]]: what RR-set generation reads.
    * Built on first use, never serialized.
    */
  @transient lazy val inEdges: LiveEdges =
    new LiveEdges(n, inOffsets, inSrc, inProb.map(LocalGraph.threshold))

  /** Whether `o` is this instance or has equal arrays in both directions. */
  def sameAs(o: LocalGraph): Boolean = (this eq o) || n == o.n && java.util.Arrays.deepEquals(
    Array[AnyRef](outOffsets, outDst, outProb, inOffsets, inSrc, inProb),
    Array[AnyRef](o.outOffsets, o.outDst, o.outProb, o.inOffsets, o.inSrc, o.inProb))

  /** Number of directed edges. */
  def m: Int = outDst.length

  /** Out-degree of vertex `v`. */
  def outDeg(v: Int): Int = outOffsets(v + 1) - outOffsets(v)

  /** In-degree of vertex `v`. */
  def inDeg(v: Int): Int = inOffsets(v + 1) - inOffsets(v)

  /** Maximum out-degree (Δ⁺ in the paper's Table 3); 0 on the empty graph. */
  def maxOutDeg: Int = (0 until n).foldLeft(0)((a, v) => math.max(a, outDeg(v)))

  /** Maximum in-degree (Δ⁻ in the paper's Table 3); 0 on the empty graph. */
  def maxInDeg: Int = (0 until n).foldLeft(0)((a, v) => math.max(a, inDeg(v)))

  /** Sum of all edge probabilities, m̃ = Σₑ p(e) — the expected number of
    * live edges in a random graph G ~ 𝒢 (paper Table 1).
    */
  def mTilde: Double = {
    var s = 0.0; var i = 0
    while (i < outProb.length) { s += outProb(i); i += 1 }
    s
  }

  /** All edges as (src, dst, p) triples, in CSR order. */
  def edges: IndexedSeq[(Int, Int, Double)] =
    for (u <- 0 until n; i <- outOffsets(u) until outOffsets(u + 1))
      yield (u, outDst(i), outProb(i))

  /** The transposed influence graph 𝒢ᵀ; a forward cascade on it is an RR set. */
  def transpose: LocalGraph =
    new LocalGraph(n, inOffsets, inSrc, inProb, outOffsets, outDst, outProb)

  /** Returns a copy with every edge probability replaced by `f(u, v)`,
    * which must lie in [0,1].
    */
  def withProbs(f: (Int, Int) => Double): LocalGraph = {
    def prob(u: Int, v: Int): Double = {
      val p = f(u, v)
      require(p >= 0.0 && p <= 1.0, s"probability $p of edge ($u,$v) outside [0,1]")
      p
    }
    val op = new Array[Double](outDst.length)
    var u = 0
    while (u < n) {
      var i = outOffsets(u)
      while (i < outOffsets(u + 1)) { op(i) = prob(u, outDst(i)); i += 1 }
      u += 1
    }
    val ip = new Array[Double](inSrc.length)
    var v = 0
    while (v < n) {
      var i = inOffsets(v)
      while (i < inOffsets(v + 1)) { ip(i) = prob(inSrc(i), v); i += 1 }
      v += 1
    }
    new LocalGraph(n, outOffsets, outDst, op, inOffsets, inSrc, ip)
  }
}

object LocalGraph {

  /** ⌈p·2⁵³⌉, the live-edge threshold of probability p. A uniform draw
    * `nextDouble` = k·2⁻⁵³ from a 53-bit integer k is below p iff k is
    * below this: k·2⁻⁵³ < p ⇔ k < p·2⁵³ ⇔ k < ⌈p·2⁵³⌉, and p·2⁵³ is exact
    * in a double.
    */
  def threshold(p: Double): Long = math.ceil(p * TwoPow53).toLong

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
    val outDst = new Array[Int](m); val outProb = new Array[Double](m)
    val inSrc  = new Array[Int](m); val inProb  = new Array[Double](m)
    val outPos = outOff.clone(); val inPos = inOff.clone()
    edges.foreach { case (u, v, p) =>
      outDst(outPos(u)) = v; outProb(outPos(u)) = p; outPos(u) += 1
      inSrc(inPos(v)) = u; inProb(inPos(v)) = p; inPos(v) += 1
    }
    new LocalGraph(n, outOff, outDst, outProb, inOff, inSrc, inProb)
  }
}

/** One direction of a [[LocalGraph]]'s adjacency with its live-edge
  * thresholds, in CSR form: what a live-edge cascade reads. The out-edges
  * give forward IC; the in-edges give RR sets, the forward cascade on the
  * transposed graph. Not `Serializable`: a serialized [[LocalGraph]]
  * drops both directions and rebuilds them on first use, so a task that
  * captures one fails with Spark's "Task not serializable".
  *
  * @param n         number of vertices, ids are `0 until n`
  * @param offsets   CSR row offsets into `adj`/`threshold`, length n+1
  * @param adj       the other endpoint of each edge, grouped by row vertex
  * @param threshold [[LocalGraph.threshold]] of each edge's probability
  */
final class LiveEdges(val n: Int, val offsets: Array[Int], val adj: Array[Int],
                      val threshold: Array[Long])
