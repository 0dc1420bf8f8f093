package repro.graphs

import org.scalatest.funsuite.AnyFunSuite

class EdgeProbsSpec extends AnyFunSuite {

  private val graphs: Seq[(String, LocalGraph)] = Seq(
    "karate" -> GraphGen.karate(),
    "ba" -> GraphGen.baRandomlyOriented(200, 2, seed = 1),
    "dpa" -> GraphGen.directedPA(150, 800, 0.4, 0.2, seed = 2),
  )

  /** Whether every stored threshold, in both directions, is `threshold(p(u, v))`. */
  private def stores(ig: LocalGraph)(p: (Int, Int) => Double): Boolean =
    (0 until ig.n).forall { u =>
      (ig.outOffsets(u) until ig.outOffsets(u + 1)).forall(i =>
        ig.outEdges.threshold(i) == LocalGraph.threshold(p(u, ig.outDst(i))))
    } && (0 until ig.n).forall { v =>
      (ig.inEdges.offsets(v) until ig.inEdges.offsets(v + 1)).forall(i =>
        ig.inEdges.threshold(i) == LocalGraph.threshold(p(ig.inEdges.adj(i), v)))
    }

  for ((name, g) <- graphs) {
    test(s"UC0.1 assigns a constant 0.1 on $name") {
      val ig = ProbModel.assign(g, ProbModel.uc01)
      assert(stores(ig)((_, _) => 0.1))
      assert(math.abs(ig.mTilde - 0.1 * g.m) < 1e-9)
    }

    test(s"UC0.01 assigns a constant 0.01 on $name") {
      val ig = ProbModel.assign(g, ProbModel.uc001)
      assert(stores(ig)((_, _) => 0.01))
      assert(math.abs(ig.mTilde - 0.01 * g.m) < 1e-9)
    }

    test(s"IWC: incoming probabilities of every vertex sum to 1 on $name") {
      val ig = ProbModel.assign(g, ProbModel.IWC)
      assert(stores(ig)((_, v) => 1.0 / g.inDeg(v)))
      (0 until ig.n).filter(ig.inDeg(_) > 0).foreach { v =>
        val s = (ig.inEdges.offsets(v) until ig.inEdges.offsets(v + 1))
          .map(i => LocalGraph.prob(ig.inEdges.threshold(i))).sum
        assert(math.abs(s - 1.0) < 1e-9, s"vertex $v")
      }
    }

    test(s"OWC: outgoing probabilities of every vertex sum to 1 on $name") {
      val ig = ProbModel.assign(g, ProbModel.OWC)
      assert(stores(ig)((u, _) => 1.0 / g.outDeg(u)))
      (0 until ig.n).filter(ig.outDeg(_) > 0).foreach { v =>
        val s = (ig.outOffsets(v) until ig.outOffsets(v + 1))
          .map(i => LocalGraph.prob(ig.outEdges.threshold(i))).sum
        assert(math.abs(s - 1.0) < 1e-9, s"vertex $v")
      }
    }

    test(s"IWC m̃ equals the number of vertices with in-degree > 0 on $name") {
      val ig = ProbModel.assign(g, ProbModel.IWC)
      val withIn = (0 until g.n).count(g.inDeg(_) > 0)
      assert(math.abs(ig.mTilde - withIn) < 1e-9)
    }

    test(s"probability assignment keeps the topology on $name") {
      val ig = ProbModel.assign(g, ProbModel.IWC)
      assert(ig.n == g.n)
      assert(ig.m == g.m)
      assert(ig.edges.map { case (u, v, _) => (u, v) } ==
             g.edges.map { case (u, v, _) => (u, v) })
    }
  }

  test("IWC of edge (u,v) is 1/inDeg(v)") {
    val g = LocalGraph.fromEdges(3, Seq((0, 2), (1, 2), (0, 1)))
    val ig = ProbModel.assign(g, ProbModel.IWC)
    val p = ig.edges.map { case (u, v, pr) => (u, v) -> pr }.toMap
    assert(math.abs(p((0, 2)) - 0.5) < 1e-12)
    assert(math.abs(p((1, 2)) - 0.5) < 1e-12)
    assert(math.abs(p((0, 1)) - 1.0) < 1e-12)
  }

  test("OWC of edge (u,v) is 1/outDeg(u)") {
    val g = LocalGraph.fromEdges(3, Seq((0, 2), (0, 1), (1, 2)))
    val ig = ProbModel.assign(g, ProbModel.OWC)
    val p = ig.edges.map { case (u, v, pr) => (u, v) -> pr }.toMap
    assert(math.abs(p((0, 2)) - 0.5) < 1e-12)
    assert(math.abs(p((0, 1)) - 0.5) < 1e-12)
    assert(math.abs(p((1, 2)) - 1.0) < 1e-12)
  }

  test("UC rejects probabilities outside (0,1]") {
    assertThrows[IllegalArgumentException](ProbModel.UC(0.0))
    assertThrows[IllegalArgumentException](ProbModel.UC(1.5))
  }

  test("the four standard models carry the paper's labels") {
    assert(ProbModel.all.map(_.name) == Seq("UC0.1", "UC0.01", "IWC", "OWC"))
  }
}
