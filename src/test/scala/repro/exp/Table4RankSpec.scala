package repro.exp

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.graphs.LocalGraph
import repro.spark.RRSetJob

/** Table 4's one-pass top-`top` ranking equals the full sort it replaced. */
class Table4RankSpec extends SparkSpec {

  private def check(prop: Prop): Unit = {
    val params = SCTest.Parameters.default
      .withMinSuccessfulTests(500)
      .withInitialSeed(org.scalacheck.rng.Seed(20200614L))
    val res = SCTest.check(params, prop)
    assert(res.passed, res.status.toString)
  }

  /** CSR row offsets whose row lengths are `counts`. */
  private def offsetsOf(counts: Seq[Int]): Array[Int] = counts.scanLeft(0)(_ + _).toArray

  /** The ranking `table4Row` used before: sort all vertices, take the head. */
  private def sorted(counts: Seq[Int], top: Int): Seq[Int] =
    counts.indices.sortBy(v => (-counts(v), v)).take(top)

  test("topByCount equals the full sort by (count desc, id asc) on heavily tied counts") {
    val gen = for {
      n <- Gen.choose(0, 40)
      maxCount <- Gen.oneOf(0, 1, 2, 5, 1000)
      counts <- Gen.listOfN(n, Gen.choose(0, maxCount))
      top <- Gen.oneOf(0, 1, 2, 3, 5, 50)
    } yield (counts, top)
    check(Prop.forAll(gen) { case (counts, top) =>
      Tables.topByCount(offsetsOf(counts), top) == sorted(counts, top)
    })
  }

  test("topByCount with top = 1 and with fewer vertices than top") {
    assert(Tables.topByCount(offsetsOf(Seq(2, 7, 7, 1)), 1) == Seq(1))
    assert(Tables.topByCount(offsetsOf(Seq(3, 9)), 3) == Seq(1, 0))
    assert(Tables.topByCount(offsetsOf(Nil), 3) == Nil)
  }

  test("a 2-vertex oracle gives a Table 4 row of 2 values") {
    val g = LocalGraph.fromWeightedEdges(2, Seq((0, 1, 0.5)))
    val row = Tables.table4Row(RRSetJob(spark, g, 4000, seed = 3))
    assert(row.size == 2)
    assert(row == row.sorted.reverse)
    // Inf(0) = 1.5 and Inf(1) = 1 exactly; θ = 4000 puts both within 0.1.
    assert(math.abs(row(0) - 1.5) < 0.1 && math.abs(row(1) - 1.0) < 0.1)
    val line = Tables.table4Lines(Seq(Tables.TopInfluence("two", "UC0.1", row)))(1)
    assert(line == f"[table4] two      UC0.1   ${row(0)}%9.4f ${row(1)}%9.4f         -")
  }
}
