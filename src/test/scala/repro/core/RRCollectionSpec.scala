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
    val index = RRCollection.invert(c.n, 1, 1)(_ => c)
    assert(index.pages == 1 && index.offsets.length == g.n + 1)
    val expected = (0 until g.n).map(v => sets(c).indices.filter(i => sets(c)(i).contains(v)))
    assert(RRSets.lists(index) == expected)
  }

  test("17 blocks of 4,096 sets span two pages and decode to the Int inversion") {
    val tiny = LocalGraph.fromWeightedEdges(4, Seq((0, 1, 0.4), (1, 2, 0.7), (0, 3, 0.2), (3, 2, 0.9)))
    val blocks = (0 until 17).map(b =>
      RRCollection.generate(tiny.inEdges, 4096, new SplittableRandom(10 + b), new Costs))
    val index = RRCollection.invert(tiny.n, blocks.size, 3)(blocks)
    assert(index.pages == 2 && index.offsets.length == 2 * tiny.n + 1)
    assert(index.ids.length == blocks.map(_.members.length).sum)
    val all = blocks.flatMap(sets)
    val expected = (0 until tiny.n).map(v => all.indices.filter(i => all(i).contains(v)))
    assert(expected.flatten.max >= RRCollection.PageSize)
    assert(RRSets.lists(index) == expected)
    assert((0 until tiny.n).map(index.count) == expected.map(_.size))
  }

  test("a part whose ids straddle a page boundary is refused") {
    val a = RRCollection.generate(g.inEdges, 4095, new SplittableRandom(11), new Costs)
    val b = RRCollection.generate(g.inEdges, 4096, new SplittableRandom(12), new Costs)
    // 15 parts of 4,096 and one of 4,095 end one id short of the page, so b straddles it.
    val parts = Seq.fill(15)(b) ++ Seq(a, b)
    val e = intercept[IllegalArgumentException](RRCollection.invert(g.n, parts.size, 1)(parts))
    assert(e.getMessage.contains("part 16 holds set ids 65535 to 69630 across a 65536-id page boundary"),
           e.getMessage)
  }

  test("an index whose offsets exceed MaxLength fails before allocating, naming n and pages") {
    assert(RRCollection.offsetsLength(34, 1) == 35)
    assert(RRCollection.offsetsLength(20000, 8) == 160001)
    val pages = RRCollection.MaxLength / 1000 + 1
    assert(RRCollection.offsetsLength(999, pages) == 999L * pages + 1)
    val e = intercept[IllegalArgumentException](RRCollection.offsetsLength(1000, pages))
    assert(e.getMessage.contains(s"n=1000, pages=$pages"), e.getMessage)
    assert(e.getMessage.contains((1000L * pages + 1).toString), e.getMessage)
  }

  test("invert(n, parts) equals invert() of the concat") {
    val a = RRCollection.generate(g.inEdges, 7, new SplittableRandom(5), new Costs)
    val b = RRCollection.generate(g.inEdges, 0, new SplittableRandom(6), new Costs)
    val c = RRCollection.generate(g.inEdges, 11, new SplittableRandom(7), new Costs)
    val offsets = a.offsets ++ c.offsets.tail.map(_ + a.members.length)
    val all = new RRCollection(g.n, offsets, a.members ++ c.members)
    assert(sets(all) == sets(a) ++ sets(c))
    val index = RRCollection.invert(g.n, 3, 1)(Seq(a, b, c))
    val ref = RRCollection.invert(all.n, 1, 1)(_ => all)
    assert(index.offsets.toSeq == ref.offsets.toSeq)
    assert(index.ids.toSeq == ref.ids.toSeq)
    assert(RRSets.lists(index).flatten.max == a.size + c.size - 1)
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
