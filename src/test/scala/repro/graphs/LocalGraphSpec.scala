package repro.graphs

import org.scalatest.funsuite.AnyFunSuite

class LocalGraphSpec extends AnyFunSuite {

  private def diamond: LocalGraph =
    // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
    LocalGraph.fromWeightedEdges(4, Seq((0, 1, 0.5), (0, 2, 0.25), (1, 3, 1.0), (2, 3, 0.1)))

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
      .map(i => (g.outDst(i), g.outProb(i))).toSet
    assert(nbrs == Set((1, 0.5), (2, 0.25)))
  }

  test("in-adjacency contains the right sources and probabilities") {
    val g = diamond
    val srcs = (g.inOffsets(3) until g.inOffsets(4))
      .map(i => (g.inSrc(i), g.inProb(i))).toSet
    assert(srcs == Set((1, 1.0), (2, 0.1)))
  }

  test("mTilde is the sum of edge probabilities") {
    assert(math.abs(diamond.mTilde - (0.5 + 0.25 + 1.0 + 0.1)) < 1e-12)
  }

  test("edges enumerates every edge exactly once") {
    val g = diamond
    assert(g.edges.toSet == Set((0, 1, 0.5), (0, 2, 0.25), (1, 3, 1.0), (2, 3, 0.1)))
    assert(g.edges.size == 4)
  }

  test("transpose swaps out- and in-adjacency") {
    val t = diamond.transpose
    assert(t.n == 4)
    assert(t.m == 4)
    assert(t.edges.toSet == Set((1, 0, 0.5), (2, 0, 0.25), (3, 1, 1.0), (3, 2, 0.1)))
  }

  test("transpose twice is the identity on edges") {
    val g = diamond
    assert(g.transpose.transpose.edges.toSet == g.edges.toSet)
  }

  test("withProbs rewrites both adjacency copies consistently") {
    val g = diamond.withProbs((u, v) => (u + v + 1) / 10.0)
    g.edges.foreach { case (u, v, p) =>
      assert(math.abs(p - (u + v + 1) / 10.0) < 1e-12)
    }
    // Reverse copy must agree.
    (0 until g.n).foreach { v =>
      (g.inOffsets(v) until g.inOffsets(v + 1)).foreach { i =>
        val u = g.inSrc(i)
        assert(math.abs(g.inProb(i) - (u + v + 1) / 10.0) < 1e-12)
      }
    }
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

  /** Ships a graph as the trial runner's broadcast does; `LiveEdges` itself is not `Serializable`. */
  private def roundTrip(g: LocalGraph): LocalGraph = {
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(g)
    out.close()
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[LocalGraph]
  }

  test("inEdges survives Java serialization with its thresholds") {
    val g = diamond
    val in = g.inEdges // built, so a non-transient one would ship
    val back = roundTrip(g)
    assert((back ne g) && back.sameAs(g)) // equal arrays in both directions
    val rebuilt = back.inEdges
    assert(rebuilt ne in)
    assert(rebuilt.n == g.n)
    assert(rebuilt.offsets.toSeq == g.inOffsets.toSeq)
    assert(rebuilt.adj.toSeq == g.inSrc.toSeq)
    assert(rebuilt.threshold.toSeq == in.threshold.toSeq)
    assert(rebuilt.threshold.toSeq == g.inProb.toSeq.map(LocalGraph.threshold))
  }

  test("outEdges survives Java serialization with its thresholds") {
    val g = diamond
    val fwd = g.outEdges // built, so a non-transient one would ship
    val back = roundTrip(g)
    assert((back ne g) && back.sameAs(g))
    val rebuilt = back.outEdges
    assert(rebuilt ne fwd)
    assert(rebuilt.n == g.n)
    assert(rebuilt.offsets.toSeq == g.outOffsets.toSeq)
    assert(rebuilt.adj.toSeq == g.outDst.toSeq)
    assert(rebuilt.threshold.toSeq == fwd.threshold.toSeq)
    assert(rebuilt.threshold.toSeq == g.outProb.toSeq.map(LocalGraph.threshold))
  }

  test("sameAs holds for equal arrays and fails on any difference") {
    val g = diamond
    assert(g.sameAs(g) && g.sameAs(diamond))
    assert(!g.sameAs(g.withProbs((_, _) => 0.5)))
    assert(!g.sameAs(g.transpose))
    assert(!g.sameAs(LocalGraph.fromWeightedEdges(5, g.edges)))
  }

  test("CSR offsets are monotone and end at m") {
    val g = diamond
    assert(g.outOffsets.head == 0)
    assert(g.outOffsets.last == g.m)
    assert(g.outOffsets.sliding(2).forall(w => w(0) <= w(1)))
    assert(g.inOffsets.head == 0)
    assert(g.inOffsets.last == g.m)
    assert(g.inOffsets.sliding(2).forall(w => w(0) <= w(1)))
  }

  test("sum of out-degrees equals sum of in-degrees equals m") {
    val g = diamond
    assert((0 until g.n).map(g.outDeg).sum == g.m)
    assert((0 until g.n).map(g.inDeg).sum == g.m)
  }
}
