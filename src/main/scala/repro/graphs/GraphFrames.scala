package repro.graphs

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The paper's Table 3 network statistics (§4.2.1), computed on the driver
  * without a Spark job: Δ⁺ and Δ⁻ from `LocalGraph`'s CSR, and the global
  * clustering coefficient and average distance on the undirected simple
  * skeleton (`Skeleton`). Also a DataFrame view of an influence graph.
  */
object GraphFrames {

  /** Edge list as a DataFrame (src, dst, p). */
  def edgesDf(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    spark.createDataset(g.edges.map { case (u, v, p) => (u, v, p) })
      .toDF("src", "dst", "p")
  }

  /** Undirected simple skeleton of a directed multigraph in CSR form: the
    * neighbours of `v` are `nbrs(offsets(v) until offsets(v + 1))`, distinct
    * and ascending. Self-loops are dropped; duplicate and antiparallel edges
    * become one undirected edge.
    */
  final class Skeleton private (val n: Int, val offsets: Array[Int], val nbrs: Array[Int])

  object Skeleton {

    def apply(g: LocalGraph): Skeleton = {
      import g.{n, outDst, outOffsets}
      def edges(u: Int) = outOffsets(u) until outOffsets(u + 1)
      // Both orientations of every non-loop edge, bucketed by endpoint.
      val start = new Array[Int](n + 1)
      for (u <- 0 until n; i <- edges(u)) if (outDst(i) != u) {
        start(u + 1) += 1; start(outDst(i) + 1) += 1
      }
      for (v <- 0 until n) start(v + 1) += start(v)
      val adj = new Array[Int](start(n))
      val pos = start.clone()
      for (u <- 0 until n; i <- edges(u)) if (outDst(i) != u) {
        adj(pos(u)) = outDst(i); pos(u) += 1
        adj(pos(outDst(i))) = u; pos(outDst(i)) += 1
      }
      // Sort each bucket and drop repeats, compacting in place.
      val offsets = new Array[Int](n + 1)
      var k = 0
      for (v <- 0 until n) {
        java.util.Arrays.sort(adj, start(v), start(v + 1))
        for (i <- start(v) until start(v + 1)) {
          if (k == offsets(v) || adj(k - 1) != adj(i)) { adj(k) = adj(i); k += 1 }
        }
        offsets(v + 1) = k
      }
      new Skeleton(n, offsets, java.util.Arrays.copyOf(adj, k))
    }
  }

  /** Global clustering coefficient 3 · #triangles / #connected-triplets of
    * the skeleton, or 0.0 without triplets. Triplets are Σ_v C(d(v), 2).
    * Triangles a < b < c are counted by the edge-iterator algorithm of
    * Schank & Wagner (WEA 2005): mark the neighbours of a, then scan the
    * neighbours c > b of each neighbour b > a, in O(Σ_v d(v)²) work.
    */
  def clusteringCoefficient(s: Skeleton): Double = {
    import s.{n, nbrs, offsets}
    val triplets = (0 until n).map { v =>
      val d = offsets(v + 1) - offsets(v); d.toLong * (d - 1) / 2
    }.sum
    if (triplets == 0) return 0.0
    val mark = new Array[Boolean](n)
    var triangles = 0L
    for (a <- 0 until n) {
      val row = offsets(a) until offsets(a + 1)
      row.foreach(i => mark(nbrs(i)) = true)
      for (i <- row if nbrs(i) > a) {
        val b = nbrs(i)
        var j = offsets(b + 1) - 1 // c > b is a suffix of b's ascending row
        while (j >= offsets(b) && nbrs(j) > b) { if (mark(nbrs(j))) triangles += 1; j -= 1 }
      }
      row.foreach(i => mark(nbrs(i)) = false)
    }
    3.0 * triangles / triplets
  }

  /** DataFrame adapter: collects the `(src, dst)` columns and runs the
    * skeleton kernel. It stays until the benchmark, which times it, drops
    * the call.
    */
  def clusteringCoefficient(spark: SparkSession, edges: DataFrame): Double =
    clusteringCoefficient(Skeleton(collectGraph(edges)))

  /** DataFrame adapter: collects the `(src, dst)` columns and returns
    * `LocalGraph.maxOutDeg` and `maxInDeg` as a one-row local DataFrame
    * (max_out, max_in) of Longs, (0, 0) without edges. It stays until the
    * benchmark, which times it, drops the call.
    */
  def degreeExtremes(edges: DataFrame): DataFrame = {
    val g = collectGraph(edges)
    edges.sparkSession.createDataFrame(Seq((g.maxOutDeg.toLong, g.maxInDeg.toLong)))
      .toDF("max_out", "max_in")
  }

  /** Unit-probability graph of an edge DataFrame's `(src, dst)` rows. */
  private def collectGraph(edges: DataFrame): LocalGraph = {
    val pairs = edges.select("src", "dst").collect().map(r => (r.getInt(0), r.getInt(1)))
    val n = if (pairs.isEmpty) 0 else pairs.iterator.map { case (u, v) => u max v }.max + 1
    LocalGraph.fromEdges(n, pairs.toSeq)
  }

  /** Average shortest-path distance over connected ordered pairs of the
    * skeleton, by BFS from every vertex (the paper reports this only for
    * networks with n ≤ 1,000). Returns NaN if no pair is connected.
    */
  def averageDistance(s: Skeleton): Double = {
    import s.{n, nbrs, offsets}
    require(n <= 5000, s"average distance is all-pairs BFS; n=$n too large")
    var totalDist = 0L
    var pairs = 0L // connected ordered pairs: every vertex reached, bar the source
    val dist = new Array[Int](n)
    val queue = new Array[Int](n)
    for (source <- 0 until n) {
      java.util.Arrays.fill(dist, -1)
      dist(source) = 0
      queue(0) = source
      var head = 0; var tail = 1
      while (head < tail) {
        val u = queue(head); head += 1
        var i = offsets(u)
        while (i < offsets(u + 1)) {
          val w = nbrs(i); i += 1
          if (dist(w) < 0) {
            dist(w) = dist(u) + 1; totalDist += dist(w)
            queue(tail) = w; tail += 1
          }
        }
      }
      pairs += tail - 1
    }
    if (pairs == 0) Double.NaN else totalDist.toDouble / pairs
  }

  /** Average distance of `g`'s undirected skeleton. */
  def averageDistance(g: LocalGraph): Double = averageDistance(Skeleton(g))

  /** Full Table 3 statistics row for one network. */
  final case class NetworkStats(name: String, n: Int, m: Int, maxOut: Int,
                                maxIn: Int, clusteringCoef: Double,
                                avgDistance: Double)

  /** Computes a Table 3 row on the driver; `withDistance` gates the
    * all-pairs BFS. `spark` is unused; it stays in the signature for
    * callers outside this repository's library, such as the benchmark.
    */
  def networkStats(spark: SparkSession, name: String, g: LocalGraph,
                   withDistance: Boolean): NetworkStats = {
    val s = Skeleton(g)
    val avg = if (withDistance) averageDistance(s) else Double.NaN
    NetworkStats(name, g.n, g.m, g.maxOutDeg, g.maxInDeg, clusteringCoefficient(s), avg)
  }
}
