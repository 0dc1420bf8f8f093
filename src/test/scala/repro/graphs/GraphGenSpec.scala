package repro.graphs

import org.scalatest.funsuite.AnyFunSuite

class GraphGenSpec extends AnyFunSuite {

  test("Karate has 34 vertices and 156 directed edges (paper Table 3)") {
    val g = GraphGen.karate()
    assert(g.n == 34)
    assert(g.m == 156)
  }

  test("Karate edge list has 78 distinct undirected pairs") {
    val pairs = GraphGen.karateUndirectedEdges1Indexed
    assert(pairs.size == 78)
    assert(pairs.distinct.size == 78)
    pairs.foreach { case (a, b) =>
      assert(a >= 1 && a <= 34 && b >= 1 && b <= 34 && a != b)
    }
  }

  test("Karate is symmetric: (u,v) edge iff (v,u) edge") {
    val g = GraphGen.karate()
    val e = g.edges.map { case (u, v, _) => (u, v) }.toSet
    e.foreach { case (u, v) => assert(e.contains((v, u))) }
  }

  test("Karate maximum degree is 17 both ways (paper Table 3)") {
    val g = GraphGen.karate()
    assert(g.maxOutDeg == 17)
    assert(g.maxInDeg == 17)
  }

  test("BA edge count is M(n - M) for n > M") {
    for ((n, m0) <- Seq((100, 1), (100, 3), (50, 5))) {
      val edges = GraphGen.barabasiAlbertEdges(n, m0, seed = 1)
      assert(edges.size == m0 * (n - m0), s"n=$n M=$m0")
    }
  }

  test("BA edges connect each new vertex to distinct earlier vertices") {
    val edges = GraphGen.barabasiAlbertEdges(200, 3, seed = 2)
    edges.groupBy(_._1).foreach { case (t, es) =>
      val targets = es.map(_._2)
      assert(targets.distinct.size == targets.size)
      targets.foreach(v => assert(v < t))
    }
  }

  test("BA is deterministic in the seed") {
    val a = GraphGen.barabasiAlbertEdges(300, 2, seed = 7)
    val b = GraphGen.barabasiAlbertEdges(300, 2, seed = 7)
    val c = GraphGen.barabasiAlbertEdges(300, 2, seed = 8)
    assert(a == b)
    assert(a != c)
  }

  test("BA produces a skewed degree distribution") {
    val edges = GraphGen.barabasiAlbertEdges(2000, 2, seed = 3)
    val deg = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
    edges.foreach { case (a, b) => deg(a) += 1; deg(b) += 1 }
    val max = deg.values.max
    val avg = 2.0 * edges.size / 2000
    assert(max > 8 * avg, s"max=$max avg=$avg — expected a hub")
  }

  test("BA_s shape: n=1000, m=999, randomly oriented (paper Table 3)") {
    val g = GraphGen.baRandomlyOriented(1000, 1, seed = 19)
    assert(g.n == 1000)
    assert(g.m == 999)
  }

  test("BA_d shape: n=1000, m=10879 (paper Table 3)") {
    val g = GraphGen.baRandomlyOriented(1000, 11, seed = 23)
    assert(g.n == 1000)
    assert(g.m == 11 * (1000 - 11))
  }

  test("random orientation keeps exactly one direction per undirected edge") {
    val g = GraphGen.baRandomlyOriented(500, 2, seed = 5)
    val e = g.edges.map { case (u, v, _) => (u, v) }.toSet
    e.foreach { case (u, v) => assert(!e.contains((v, u)), s"both directions of ($u,$v)") }
  }

  test("baBothDirections emits both orientations") {
    val g = GraphGen.baBothDirections(500, 2, seed = 5)
    val e = g.edges.map { case (u, v, _) => (u, v) }.toSet
    e.foreach { case (u, v) => assert(e.contains((v, u))) }
    assert(g.m == 2 * 2 * (500 - 2))
  }

  test("cliqueCommunity is symmetric with no loops or duplicates") {
    val g = GraphGen.cliqueCommunity(300, 3, 6, extraEdges = 250, seed = 21)
    assert(g.n == 300)
    val e = g.edges.map { case (u, v, _) => (u, v) }
    assert(e.distinct.size == e.size)
    e.foreach { case (u, v) => assert(u != v) }
    val set = e.toSet
    set.foreach { case (u, v) => assert(set.contains((v, u))) }
  }

  test("cliqueCommunity has high global clustering") {
    val g = GraphGen.cliqueCommunity(1000, 3, 6, extraEdges = 900, seed = 22)
    val und = g.edges.map { case (u, v, _) => (math.min(u, v), math.max(u, v)) }.toSet
    val adj = Array.fill(1000)(Set.empty[Int])
    und.foreach { case (a, b) => adj(a) += b; adj(b) += a }
    var triangles = 0L
    und.foreach { case (a, b) => triangles += (adj(a) & adj(b)).size }
    triangles /= 3
    var triplets = 0L
    adj.foreach(s => triplets += s.size.toLong * (s.size - 1) / 2)
    val cc = 3.0 * triangles / triplets
    assert(cc > 0.3, s"clustering=$cc")
  }

  test("cliqueCommunity is deterministic in the seed") {
    val a = GraphGen.cliqueCommunity(200, 3, 5, 100, seed = 23).edges
    val b = GraphGen.cliqueCommunity(200, 3, 5, 100, seed = 23).edges
    assert(a == b)
  }

  test("directedPA has exactly the requested edge count, no loops, no duplicates") {
    val g = GraphGen.directedPA(500, 3000, 0.4, 0.2, seed = 11)
    assert(g.n == 500)
    assert(g.m == 3000)
    val e = g.edges.map { case (u, v, _) => (u, v) }
    assert(e.distinct.size == 3000)
    e.foreach { case (u, v) => assert(u != v) }
  }

  test("directedPA creates in-degree hubs") {
    val g = GraphGen.directedPA(2000, 20000, 0.4, 0.15, seed = 12)
    val avgIn = g.m.toDouble / g.n
    assert(g.maxInDeg > 5 * avgIn, s"maxIn=${g.maxInDeg} avg=$avgIn")
  }

  test("directedPA is deterministic in the seed") {
    val a = GraphGen.directedPA(300, 1500, 0.4, 0.2, seed = 13).edges
    val b = GraphGen.directedPA(300, 1500, 0.4, 0.2, seed = 13).edges
    assert(a == b)
  }

  test("boundedOutDegreePA respects the out-degree cap and edge target") {
    val g = GraphGen.boundedOutDegreePA(241, 1098, 9, seed = 42)
    assert(g.n == 241)
    assert(g.m == 1098)
    assert(g.maxOutDeg <= 9)
    val e = g.edges.map { case (u, v, _) => (u, v) }
    assert(e.distinct.size == e.size)
    e.foreach { case (u, v) => assert(u != v) }
  }

  test("boundedOutDegreePA accumulates in-degree on popular vertices") {
    val g = GraphGen.boundedOutDegreePA(241, 1098, 9, seed = 42)
    val avgIn = g.m.toDouble / g.n
    assert(g.maxInDeg > 2 * avgIn)
  }

  test("generator preconditions are enforced") {
    assertThrows[IllegalArgumentException](GraphGen.barabasiAlbertEdges(3, 3, 0))
    assertThrows[IllegalArgumentException](GraphGen.directedPA(3, 100, 0.5, 0.5, 0))
    assertThrows[IllegalArgumentException](GraphGen.boundedOutDegreePA(10, 200, 2, 0))
  }
}
