package repro.graphs

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite

class LocalGraphSpec extends AnyFunSuite {

  private def diamond: LocalGraph =
    // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
    LocalGraph.fromWeightedEdges(4, Seq((0, 1, 0.5), (0, 2, 0.25), (1, 3, 1.0), (2, 3, 0.1)))

  import LocalGraph.threshold

  /** The effective probability the graph stores for a given p. */
  private def eff(p: Double): Double = LocalGraph.prob(threshold(p))

  test("fromEdges builds correct vertex and edge counts") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)))
    assert(g.n == 3)
    assert(g.m == 3)
  }

  test("empty edge list yields m = 0 and zero degrees") {
    val g = LocalGraph.fromEdges(5, Seq.empty)
    assert(g.m == 0)
    (0 until 5).foreach { v =>
      assert(g.outDeg(v) == 0)
      assert(g.inDeg(v) == 0)
    }
    assert(g.maxOutDeg == 0)
    assert(g.maxInDeg == 0)
    assert(g.mTilde == 0.0)
  }

  test("out-degrees match the edge list") {
    val g = diamond
    assert(g.outDeg(0) == 2)
    assert(g.outDeg(1) == 1)
    assert(g.outDeg(2) == 1)
    assert(g.outDeg(3) == 0)
  }

  test("in-degrees match the edge list") {
    val g = diamond
    assert(g.inDeg(0) == 0)
    assert(g.inDeg(1) == 1)
    assert(g.inDeg(2) == 1)
    assert(g.inDeg(3) == 2)
  }

  test("maxOutDeg and maxInDeg") {
    val g = diamond
    assert(g.maxOutDeg == 2)
    assert(g.maxInDeg == 2)
  }

  test("out-adjacency contains the right neighbours and probabilities") {
    val g = diamond
    val nbrs = (g.outOffsets(0) until g.outOffsets(1))
      .map(i => (g.outDst(i), g.outEdges.threshold(i))).toSet
    assert(nbrs == Set((1, threshold(0.5)), (2, threshold(0.25))))
  }

  test("in-adjacency contains the right sources and probabilities") {
    val g = diamond
    val srcs = (g.inEdges.offsets(3) until g.inEdges.offsets(4))
      .map(i => (g.inEdges.adj(i), g.inEdges.threshold(i))).toSet
    assert(srcs == Set((1, threshold(1.0)), (2, threshold(0.1))))
  }

  test("mTilde is the sum of edge probabilities") {
    assert(math.abs(diamond.mTilde - (0.5 + 0.25 + 1.0 + 0.1)) < 1e-12)
  }

  test("edges enumerates every edge exactly once") {
    val g = diamond
    assert(g.edges.toSet == Set((0, 1, 0.5), (0, 2, 0.25), (1, 3, 1.0), (2, 3, eff(0.1))))
    assert(g.edges.size == 4)
  }

  test("withProbs rewrites both adjacency copies consistently") {
    def p(u: Int, v: Int) = (u + v + 1) / 10.0
    val g = diamond.withProbs(p)
    g.edges.foreach { case (u, v, q) =>
      assert(math.abs(q - p(u, v)) < 1e-12)
    }
    (0 until g.n).foreach { u =>
      (g.outOffsets(u) until g.outOffsets(u + 1)).foreach { i =>
        assert(g.outEdges.threshold(i) == threshold(p(u, g.outDst(i))))
      }
    }
    // Reverse copy must agree.
    (0 until g.n).foreach { v =>
      (g.inEdges.offsets(v) until g.inEdges.offsets(v + 1)).foreach { i =>
        assert(g.inEdges.threshold(i) == threshold(p(g.inEdges.adj(i), v)))
      }
    }
  }

  test("withProbs shares the offsets and adjacency of its source") {
    val g = diamond
    val w = g.withProbs((_, _) => 0.5)
    assert((w.outOffsets eq g.outOffsets) && (w.outDst eq g.outDst))
    assert((w.inEdges.offsets eq g.inEdges.offsets) && (w.inEdges.adj eq g.inEdges.adj))
  }

  test("self-loops and parallel edges are preserved (multigraph semantics)") {
    val g = LocalGraph.fromEdges(2, Seq((0, 1), (0, 1), (1, 1)))
    assert(g.m == 3)
    assert(g.outDeg(0) == 2)
    assert(g.inDeg(1) == 3)
  }

  test("out-of-range edge endpoint is rejected") {
    assertThrows[IllegalArgumentException] {
      LocalGraph.fromEdges(2, Seq((0, 2)))
    }
    assertThrows[IllegalArgumentException] {
      LocalGraph.fromEdges(2, Seq((-1, 0)))
    }
  }

  test("probability outside [0,1] is rejected") {
    assertThrows[IllegalArgumentException] {
      LocalGraph.fromWeightedEdges(2, Seq((0, 1, 1.5)))
    }
    assertThrows[IllegalArgumentException] {
      LocalGraph.fromWeightedEdges(2, Seq((0, 1, -0.1)))
    }
  }

  test("withProbs rejects a probability outside [0,1] or NaN, naming the edge") {
    for (bad <- Seq(Double.NaN, -0.1, 1.5)) {
      val e = intercept[IllegalArgumentException] {
        diamond.withProbs((u, v) => if ((u, v) == (2, 3)) bad else 0.5)
      }
      assert(e.getMessage.contains(s"probability $bad of edge (2,3) outside [0,1]"))
    }
  }

  test("threshold(prob(t)) == t for every threshold t in [0, 2^53]") {
    val top = 1L << 53
    val rng = new SplittableRandom(20200614L)
    for (t <- Seq(0L, 1L, 2L, top - 1, top) ++ Seq.fill(100000)(rng.nextLong(top + 1)))
      assert(threshold(LocalGraph.prob(t)) == t, s"t=$t")
  }

  test("the effective probability is at most 2^-53 above p, and p when p·2^53 is an integer") {
    for (p <- Seq(0.0, 0.1, 0.01, 1.0 / 3, 0.5, 0.25, 1.0 / 733, 1e-300, 1.0)) {
      assert(eff(p) >= p && eff(p) - p <= math.pow(2, -53), s"p=$p")
    }
    for (p <- Seq(0.0, 0.5, 0.25, 0.125, 1.0, math.pow(2, -53))) assert(eff(p) == p, s"p=$p")
  }

  test("survives Java serialization with both directions and their thresholds") {
    val g = diamond
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(g)
    out.close()
    val back = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[LocalGraph]
    assert((back ne g) && (back.outEdges ne g.outEdges) && (back.inEdges ne g.inEdges))
    assert(back.sameAs(g))
  }

  test("sameAs holds for equal arrays and fails on any difference") {
    val g = diamond
    assert(g.sameAs(g) && g.sameAs(diamond))
    assert(!g.sameAs(g.withProbs((_, _) => 0.5)))
    assert(!g.sameAs(new LocalGraph(g.n, g.inEdges, g.outEdges)))
    assert(!g.sameAs(LocalGraph.fromWeightedEdges(5, g.edges)))
    // One threshold apart, in either direction alone.
    val t = g.outEdges.threshold.clone()
    t(0) += 1
    assert(!g.sameAs(new LocalGraph(4, new LiveEdges(4, g.outOffsets, g.outDst, t), g.inEdges)))
    assert(!g.sameAs(new LocalGraph(4, g.outEdges, new LiveEdges(4, g.inEdges.offsets, g.inEdges.adj, t))))
  }

  private def intercepted(f: => Any): String = intercept[IllegalArgumentException](f).getMessage

  test("a direction needs n + 1 offsets") {
    val e = intercepted(new LiveEdges(3, Array(0, 0, 0), Array.empty, Array.empty))
    assert(e.contains("3 offsets for 3 vertices"), e)
    assert(intercepted(new LiveEdges(-1, Array.empty, Array.empty, Array.empty))
      .contains("0 offsets for -1 vertices"))
  }

  test("a direction's offsets start at 0") {
    val e = intercepted(new LiveEdges(2, Array(1, 1, 1), Array(0), Array(0L)))
    assert(e.contains("offsets start at 1, not 0"), e)
  }

  test("a direction's offsets end at its endpoint count") {
    val e = intercepted(new LiveEdges(1, Array(0, 2), Array(0), Array(0L)))
    assert(e.contains("offsets end at 2, with 1 endpoints and 1 thresholds"), e)
  }

  test("a direction has one threshold per endpoint") {
    val e = intercepted(new LiveEdges(1, Array(0, 1), Array(0), Array(0L, 0L)))
    assert(e.contains("offsets end at 1, with 1 endpoints and 2 thresholds"), e)
  }

  test("a graph's directions have its vertex count") {
    val g = diamond
    val small = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2), (2, 0)))
    val e = intercepted(new LocalGraph(4, g.outEdges, small.inEdges))
    assert(e.contains("directions have 4 (out) and 3 (in) vertices, graph has 4"), e)
    assert(intercepted(new LocalGraph(5, g.outEdges, g.inEdges))
      .contains("directions have 4 (out) and 4 (in) vertices, graph has 5"))
  }

  test("a graph's directions have the same edge count") {
    val g = diamond
    val fewer = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val e = intercepted(new LocalGraph(4, g.outEdges, fewer.inEdges))
    assert(e.contains("directions have 4 (out) and 3 (in) edges"), e)
  }

  test("CSR offsets are monotone and end at m") {
    val g = diamond
    assert(g.outOffsets.head == 0)
    assert(g.outOffsets.last == g.m)
    assert(g.outOffsets.sliding(2).forall(w => w(0) <= w(1)))
    assert(g.inEdges.offsets.head == 0)
    assert(g.inEdges.offsets.last == g.m)
    assert(g.inEdges.offsets.sliding(2).forall(w => w(0) <= w(1)))
  }

  test("sum of out-degrees equals sum of in-degrees equals m") {
    val g = diamond
    assert((0 until g.n).map(g.outDeg).sum == g.m)
    assert((0 until g.n).map(g.inDeg).sum == g.m)
  }
}
