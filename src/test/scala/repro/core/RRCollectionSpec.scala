package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.graphs.{GraphGen, LocalGraph}

class RRCollectionSpec extends AnyFunSuite {

  private val g = GraphGen.karate().withProbs((_, _) => 0.3)

  private def sets(c: RRCollection): Seq[Seq[Int]] =
    (0 until c.size).map(i => c.members.slice(c.offsets(i), c.offsets(i + 1)).toSeq)

  test("generate draws the sets and costs of repeated RRSets.generate") {
    val costs = new Costs
    val c = RRCollection.generate(g.inEdges, 500, new SplittableRandom(3), costs)
    val rng = new SplittableRandom(3)
    val scratch = new SimScratch(g.n)
    val refCosts = new Costs
    val ref = Seq.fill(500)(RRSets.generate(g, rng, scratch, refCosts).toSeq)
    assert(sets(c) == ref)
    assert((costs.vertex, costs.edge) == (refCosts.vertex, refCosts.edge))
    assert(c.storedVertices == ref.map(_.size).sum)
  }

  test("invert lists every set id, ascending, under each of its members") {
    val c = RRCollection.generate(g.inEdges, 300, new SplittableRandom(4), new Costs)
    val (offsets, ids) = RRCollection.invert(c.n, 1, 1)(_ => c)
    val byVertex = (0 until g.n).map(v => ids.slice(offsets(v), offsets(v + 1)).toSeq)
    val expected = (0 until g.n).map(v => sets(c).indices.filter(i => sets(c)(i).contains(v)))
    assert(byVertex == expected)
  }

  test("invert(n, parts) equals invert() of the concat") {
    val a = RRCollection.generate(g.inEdges, 7, new SplittableRandom(5), new Costs)
    val b = RRCollection.generate(g.inEdges, 0, new SplittableRandom(6), new Costs)
    val c = RRCollection.generate(g.inEdges, 11, new SplittableRandom(7), new Costs)
    val offsets = a.offsets ++ c.offsets.tail.map(_ + a.members.length)
    val all = new RRCollection(g.n, offsets, a.members ++ c.members)
    assert(sets(all) == sets(a) ++ sets(c))
    val (vo, ids) = RRCollection.invert(g.n, 3, 1)(Seq(a, b, c))
    val (refVo, refIds) = RRCollection.invert(all.n, 1, 1)(_ => all)
    assert(vo.toSeq == refVo.toSeq)
    assert(ids.toSeq == refIds.toSeq)
    assert(ids.max == a.size + c.size - 1)
  }

  test("invert rejects a part drawn on another vertex count") {
    val a = RRCollection.generate(g.inEdges, 3, new SplittableRandom(8), new Costs)
    val other = RRCollection.generate(LocalGraph.fromWeightedEdges(2, Seq((0, 1, 0.5))).inEdges,
                                      3, new SplittableRandom(9), new Costs)
    val e = intercept[IllegalArgumentException](RRCollection.invert(g.n, 2, 1)(Seq(a, other)))
    assert(e.getMessage.contains(s"part on 2 vertices, expected ${g.n}"))
  }

  test("a count outside the Int offsets range is rejected") {
    val tiny = LocalGraph.fromWeightedEdges(2, Seq((0, 1, 0.5)))
    assertThrows[IllegalArgumentException](
      RRCollection.generate(tiny.inEdges, -1, new SplittableRandom(1), new Costs))
  }
}
