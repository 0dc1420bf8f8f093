package repro.graphs

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{Oracle, SparkSpec}
import repro.exp.{Instances, NetworkSpec, Tables}

class GraphFramesSpec extends SparkSpec {

  private lazy val karate = GraphGen.karate()
  private lazy val karateEdges = GraphFrames.edgesDf(spark, karate)

  test("edgesDf has one row per edge with the right schema") {
    assert(karateEdges.columns.toSeq == Seq("src", "dst", "p"))
    assert(karateEdges.count() == karate.m)
  }

  test("edgesDf round-trips the edge multiset") {
    val back = karateEdges.collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getDouble(2))).toSet
    assert(back == karate.edges.toSet)
  }

  test("degreeExtremes matches LocalGraph on Karate") {
    val row = GraphFrames.degreeExtremes(karateEdges).head()
    assert(row.getLong(0) == karate.maxOutDeg)
    assert(row.getLong(1) == karate.maxInDeg)
  }

  test("degreeExtremes agrees with DuckDB (oracle)") {
    Oracle.assertEquivalent(
      GraphFrames.degreeExtremes(karateEdges),
      """SELECT (SELECT MAX(d) FROM (SELECT COUNT(*) AS d FROM edges GROUP BY src)) AS max_out,
        |       (SELECT MAX(d) FROM (SELECT COUNT(*) AS d FROM edges GROUP BY dst)) AS max_in""".stripMargin,
      "edges" -> karateEdges,
    )
  }

  test("out-degree histogram agrees with DuckDB (oracle)") {
    import org.apache.spark.sql.functions._
    val sparkDf = karateEdges.groupBy("src").agg(count("*") as "deg")
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT src, COUNT(*) AS deg FROM edges GROUP BY src",
      "edges" -> karateEdges,
    )
  }

  test("clustering coefficient of a triangle is 1") {
    val g = LocalGraph.fromEdges(3,
      Seq((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)))
    val cc = GraphFrames.clusteringCoefficient(spark, GraphFrames.edgesDf(spark, g))
    assert(math.abs(cc - 1.0) < 1e-9)
  }

  test("clustering coefficient of a star is 0") {
    val g = LocalGraph.fromEdges(5, (1 until 5).flatMap(v => Seq((0, v), (v, 0))))
    val cc = GraphFrames.clusteringCoefficient(spark, GraphFrames.edgesDf(spark, g))
    assert(cc == 0.0)
  }

  test("clustering coefficient of K4 is 1") {
    val edges = for (u <- 0 until 4; v <- 0 until 4 if u != v) yield (u, v)
    val g = LocalGraph.fromEdges(4, edges)
    val cc = GraphFrames.clusteringCoefficient(spark, GraphFrames.edgesDf(spark, g))
    assert(math.abs(cc - 1.0) < 1e-9)
  }

  test("clustering coefficient of a 4-cycle plus one chord") {
    // Cycle 0-1-2-3 with chord 0-2: triangles {0,1,2},{0,2,3};
    // degrees 3,2,3,2 -> triplets 3+1+3+1=8; cc = 3*2/8 = 0.75.
    val und = Seq((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
    val g = LocalGraph.fromEdges(4, und.flatMap { case (a, b) => Seq((a, b), (b, a)) })
    val cc = GraphFrames.clusteringCoefficient(spark, GraphFrames.edgesDf(spark, g))
    assert(math.abs(cc - 0.75) < 1e-9)
  }

  test("Karate clustering coefficient matches the paper's 0.26 (±0.02)") {
    val cc = GraphFrames.clusteringCoefficient(spark, karateEdges)
    assert(math.abs(cc - 0.26) < 0.02, s"cc=$cc")
  }

  test("clusteringCoefficient agrees with DuckDB 3·triangles/triplets (oracle)") {
    import spark.implicits._
    // Karate plus a self-loop and two duplicate edges, which the skeleton drops.
    val messy = LocalGraph.fromEdges(karate.n,
      karate.edges.map { case (u, v, _) => (u, v) } ++ Seq((0, 0), (0, 1), (5, 0)))
    val edges = GraphFrames.edgesDf(spark, messy)
    Oracle.assertEquivalent(
      Seq(GraphFrames.clusteringCoefficient(spark, edges)).toDF("cc"),
      """WITH und AS (SELECT DISTINCT LEAST(CAST(src AS INTEGER), CAST(dst AS INTEGER)) AS a,
        |                            GREATEST(CAST(src AS INTEGER), CAST(dst AS INTEGER)) AS b
        |             FROM edges WHERE src <> dst),
        |     deg AS (SELECT v, COUNT(*) AS d
        |             FROM (SELECT a AS v FROM und UNION ALL SELECT b AS v FROM und) GROUP BY v),
        |     tri AS (SELECT COUNT(*) AS t
        |             FROM und ab JOIN und bc ON ab.b = bc.a
        |                         JOIN und ac ON ac.a = ab.a AND ac.b = bc.b)
        |SELECT 3.0 * CAST((SELECT t FROM tri) AS DOUBLE)
        |           / CAST((SELECT SUM(d * (d - 1) / 2) FROM deg) AS DOUBLE) AS cc""".stripMargin,
      "edges" -> edges,
    )
  }

  test("average distance of a directed 3-path's undirected skeleton") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    // undirected distances: (0,1)=1 (0,2)=2 (1,2)=1 each counted both ways
    assert(math.abs(GraphFrames.averageDistance(g) - 8.0 / 6) < 1e-9)
  }

  test("average distance of a star is (2(n-1)(n-2)+2(n-1))/(n(n-1))") {
    val n = 6
    val g = LocalGraph.fromEdges(n, (1 until n).map(v => (0, v)))
    val expected = (2.0 * (n - 1) * (n - 2) + 2.0 * (n - 1)) / (n.toDouble * (n - 1))
    assert(math.abs(GraphFrames.averageDistance(g) - expected) < 1e-9)
  }

  test("average distance of Karate matches the paper's 2.41 (±0.05)") {
    val d = GraphFrames.averageDistance(karate)
    assert(math.abs(d - 2.41) < 0.05, s"avgDist=$d")
  }

  test("average distance of a graph with no edges is NaN") {
    val g = LocalGraph.fromEdges(3, Seq.empty)
    assert(GraphFrames.averageDistance(g).isNaN)
  }

  test("networkStats assembles the full Table 3 row for Karate") {
    val s = GraphFrames.networkStats(spark, "Karate", karate, withDistance = true)
    assert(s.n == 34 && s.m == 156 && s.maxOut == 17 && s.maxIn == 17)
    assert(math.abs(s.clusteringCoef - 0.26) < 0.02)
    assert(math.abs(s.avgDistance - 2.41) < 0.05)
  }

  test("Table 3 row of an edgeless network: degrees 0, cc 0.0, distance NaN") {
    val empty = LocalGraph.fromEdges(4, Seq.empty)
    val spec = NetworkSpec("edgeless", starred = false, withDistance = true, () => empty)
    val Seq(row) = Tables.table3(spark, Seq(spec))
    val direct = GraphFrames.networkStats(spark, "edgeless", empty, withDistance = true)
    for (s <- Seq(row, direct)) {
      assert((s.n, s.m, s.maxOut, s.maxIn, s.clusteringCoef) == (4, 0, 0, 0, 0.0))
      assert(s.avgDistance.isNaN)
    }
    val ext = GraphFrames.degreeExtremes(GraphFrames.edgesDf(spark, empty)).head()
    assert((ext.getLong(0), ext.getLong(1)) == (0L, 0L))
  }

  test("skeleton, clustering and distance equal a Set-based brute force on random multigraphs") {
    // Self-loops (u == v), duplicates and antiparallel copies, isolated vertices.
    val multigraphGen: Gen[LocalGraph] = for {
      n <- Gen.choose(1, 9)
      k <- Gen.choose(0, 20)
      pairs <- Gen.listOfN(k, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
      extra <- Gen.listOfN(k, Gen.choose(0, 2))
    } yield LocalGraph.fromEdges(n, pairs ++ pairs.zip(extra).collect {
      case ((u, v), 1) => (u, v)
      case ((u, v), 2) => (v, u)
    })
    val prop = Prop.forAll(multigraphGen) { g =>
      val (adj, cc, dist) = bruteForce(g)
      val sk = GraphFrames.Skeleton(g)
      val rows = (0 until g.n).map(v => sk.nbrs.slice(sk.offsets(v), sk.offsets(v + 1)).toSeq)
      rows == adj.map(_.toSeq.sorted).toSeq &&
        GraphFrames.clusteringCoefficient(sk) == cc &&
        java.lang.Double.compare(GraphFrames.averageDistance(g), dist) == 0
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300)
      .withInitialSeed(org.scalacheck.rng.Seed(3L)), prop)
    assert(res.passed, res.status.toString)
  }

  /** Undirected neighbour sets, clustering coefficient (all triples a < b < c)
    * and average distance (Floyd–Warshall) of `g`'s simple skeleton.
    */
  private def bruteForce(g: LocalGraph): (Array[Set[Int]], Double, Double) = {
    val adj = Array.fill(g.n)(Set.empty[Int])
    g.edges.foreach { case (u, v, _) => if (u != v) { adj(u) += v; adj(v) += u } }
    val triangles = (for (a <- 0 until g.n; b <- a + 1 until g.n; c <- b + 1 until g.n
                          if adj(a)(b) && adj(b)(c) && adj(a)(c)) yield 1L).sum
    val triplets = adj.map(s => s.size.toLong * (s.size - 1) / 2).sum
    val cc = if (triplets == 0) 0.0 else 3.0 * triangles / triplets
    val inf = Int.MaxValue / 2
    val d = Array.tabulate(g.n, g.n)((u, v) => if (u == v) 0 else if (adj(u)(v)) 1 else inf)
    for (k <- 0 until g.n; u <- 0 until g.n; v <- 0 until g.n)
      d(u)(v) = math.min(d(u)(v), d(u)(k) + d(k)(v))
    val connected = for (u <- 0 until g.n; v <- 0 until g.n if u != v && d(u)(v) < inf)
      yield d(u)(v).toLong
    val dist = if (connected.isEmpty) Double.NaN else connected.sum.toDouble / connected.size
    (adj, cc, dist)
  }

  test("Table 3 of all eight networks starts no Spark job") {
    val sc = spark.sparkContext
    val groups = new java.util.concurrent.ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        groups.add(String.valueOf(e.properties.getProperty("spark.jobGroup.id")))
    }
    sc.addSparkListener(listener)
    try {
      Tables.table3(spark, Instances.all)
      // Listener events arrive in order, so once the marker job's start is
      // seen, every job Table 3 started has been seen too.
      sc.setJobGroup("table3-marker", "marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (!groups.contains("table3-marker") && System.nanoTime() < deadline) Thread.sleep(10)
      assert(groups.toArray.toSeq == Seq("table3-marker"))
    } finally sc.removeSparkListener(listener)
  }
}
