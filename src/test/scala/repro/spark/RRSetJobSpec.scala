package repro.spark

import java.util.SplittableRandom
import scala.jdk.CollectionConverters._
import repro.{Oracle, SparkSpec}
import repro.core.{Costs, ExactInfluence, RRCollection, RRSets, SimScratch}
import repro.graphs.{GraphGen, LiveEdges, LocalGraph, ProbModel}

class RRSetJobSpec extends SparkSpec {

  private lazy val tiny = LocalGraph.fromWeightedEdges(4,
    Seq((0, 1, 0.4), (1, 2, 0.7), (0, 3, 0.2), (3, 2, 0.9)))
  private lazy val tinyOracle = RRSetJob(spark, tiny, theta = 150000, seed = 1)

  test("inverted index equals a sequential build of the same seeded blocks") {
    val block = RRSetJob.BlockSize
    for (theta <- Seq(1000, 2 * block + 123)) {
      val seed = 21L
      val sets = (0 until (theta + block - 1) / block).flatMap { b =>
        val rng = new SplittableRandom(TrialRunner.mixSeed(seed, b.toLong))
        val scratch = new SimScratch(tiny.n)
        val costs = new Costs
        Seq.fill(math.min(block, theta - b * block))(
          RRSets.generate(tiny, rng, scratch, costs).toSet)
      }
      val expected = (0 until tiny.n).map(v => sets.indices.filter(i => sets(i)(v)))
      assert(RRSets.lists(RRSetJob(spark, tiny, theta, seed).index) == expected, s"theta=$theta")
    }
  }

  test("the inverted index does not depend on the number of drawing threads") {
    val g = ProbModel.assign(GraphGen.karate(), ProbModel.IWC)
    val theta = 5L * RRSetJob.BlockSize + 7
    val blocks = (0 until 6).map { b =>
      val size = math.min(RRSetJob.BlockSize.toLong, theta - b.toLong * RRSetJob.BlockSize).toInt
      RRCollection.generate(g.inEdges, size,
        new SplittableRandom(TrialRunner.mixSeed(3, b.toLong)), new Costs)
    }
    val index = RRCollection.invert(g.n, blocks.size, 1)(blocks)
    val oracle = RRSetJob(spark, g, theta, seed = 3).index
    assert(oracle.offsets.toSeq == index.offsets.toSeq && oracle.ids.toSeq == index.ids.toSeq)
    // Draw, count and scatter on 1 thread, 3 threads, and more threads than the 6 blocks.
    for (threads <- Seq(1, 3, 16)) {
      val i = RRCollection.invert(g.n, blocks.size, threads)(RRSetJob.block(g.inEdges, theta, 3))
      assert(i.offsets.toSeq == index.offsets.toSeq && i.ids.toSeq == index.ids.toSeq,
             s"threads=$threads")
    }
  }

  test("an oracle over three pages has one index on any thread count and scores by brute force") {
    val g = ProbModel.assign(GraphGen.karate(), ProbModel.IWC)
    val theta = 2L * RRCollection.PageSize + 3
    val oracle = RRSetJob(spark, g, theta, seed = 9)
    assert(oracle.index.pages == 3)
    val blockCount = ((theta + RRSetJob.BlockSize - 1) / RRSetJob.BlockSize).toInt
    for (threads <- Seq(1, 3, 16)) {
      val i = RRCollection.invert(g.n, blockCount, threads)(RRSetJob.block(g.inEdges, theta, 9))
      assert(i.offsets.toSeq == oracle.index.offsets.toSeq && i.ids.toSeq == oracle.index.ids.toSeq,
             s"threads=$threads")
    }
    // Brute force: the RR sets of the blocks, in id order, each a member set.
    val rr = (0 until blockCount).flatMap { b =>
      val c = RRSetJob.block(g.inEdges, theta, 9)(b)
      (0 until c.size).map(i => c.members.slice(c.offsets(i), c.offsets(i + 1)).toSet)
    }
    assert(rr.size == theta)
    assert(RRSets.lists(oracle.index) == (0 until g.n).map(v => rr.indices.filter(rr(_)(v))))
    // Table 4 and callers outside this library read counts off the vertex offsets.
    val (vertexOffsets, ids) = oracle.invertedIndex
    assert((0 until g.n).map(v => vertexOffsets(v + 1) - vertexOffsets(v)) ==
             RRSets.lists(oracle.index).map(_.size))
    assert(ids.length == rr.map(_.size).sum)
    val sets = Seq(Seq(0), Seq(33), Seq(0, 33), Seq(5, 16, 24), Seq(1, 2, 3, 4), Seq.empty)
    val got = oracle.influenceOfSets(sets)
    sets.foreach { s =>
      val covered = rr.count(r => s.exists(r))
      assert(got(s.sorted.mkString(",")) == covered * g.n.toDouble / theta, s"S=$s")
    }
  }

  test("seed-set evaluation does not depend on the number of threads") {
    val g = ProbModel.assign(GraphGen.karate(), ProbModel.IWC)
    val oracle = RRSetJob(spark, g, 3L * RRSetJob.BlockSize, seed = 4)
    val rng = new SplittableRandom(5)
    // Enough sets for 5 workers, with repeats in other orders and the empty set.
    val sets = Seq.fill(5 * RRSetJob.SetsPerWorker)(Seq.fill(1 + rng.nextInt(4))(rng.nextInt(g.n))) ++
      Seq(Seq(2, 1), Seq(1, 2), Seq.empty)
    val one = oracle.influenceOfSets(sets, threads = 1)
    assert(one.size == sets.map(_.sorted).distinct.size)
    // 3 threads, and more threads than workers, for many sets and for two.
    for (threads <- Seq(3, 16)) {
      assert(oracle.influenceOfSets(sets, threads) == one, s"threads=$threads")
      assert(oracle.influenceOfSets(sets.take(2), threads) == oracle.influenceOfSets(sets.take(2), 1),
             s"two sets, threads=$threads")
    }
    assert(oracle.influenceOfSets(sets) == one)
  }

  test("a seed-set vertex outside [0, n) is rejected before any thread starts") {
    val sets = (0 until 4 * RRSetJob.SetsPerWorker).map(v => Seq(v % tiny.n))
    for (bad <- Seq(-1, tiny.n)) {
      val e = intercept[IllegalArgumentException](tinyOracle.influenceOfSets(sets :+ Seq(0, bad)))
      assert(e.getMessage.contains(s"vertex $bad outside [0, ${tiny.n})"), e.getMessage)
    }
    val alive = Thread.getAllStackTraces.keySet.asScala.map(_.getName)
      .filter(_.startsWith(RRCollection.ThreadName))
    assert(alive.isEmpty, alive)
  }

  test("a failing block surfaces its own exception and leaves no drawing thread alive") {
    // A live edge from vertex 5 of a 1-vertex graph: every RR set marks outside [0, n).
    val edge = new LiveEdges(1, Array(0, 1), Array(5), Array(LocalGraph.threshold(1.0)))
    val bad = new LocalGraph(1, edge, edge)
    val sequential = intercept[Throwable](RRCollection.generate(
      bad.inEdges, RRSetJob.BlockSize, new SplittableRandom(1), new Costs))
    val built = intercept[Throwable](RRSetJob(spark, bad, 4L * RRSetJob.BlockSize, seed = 1))
    assert(built.getClass == sequential.getClass, built)
    val alive = Thread.getAllStackTraces.keySet.asScala.map(_.getName)
      .filter(_.startsWith(RRCollection.ThreadName))
    assert(alive.isEmpty, alive)
  }

  test("an interrupted caller gets an InterruptedException, not a partial result, on one worker") {
    val oracle = tinyOracle // built before the flag is set
    val block = RRCollection.generate(tiny.inEdges, 10, new SplittableRandom(2), new Costs)
    Thread.currentThread.interrupt()
    try {
      intercept[InterruptedException](RRCollection.invert(tiny.n, 1, 1)(_ => block))
      Thread.currentThread.interrupt()
      intercept[InterruptedException](oracle.influenceOfSets(Seq(Seq(0), Seq(1, 2))))
    } finally Thread.interrupted()
  }

  test("every RR set contains at least its target (non-empty)") {
    val seen = new Array[Boolean](150000)
    RRSets.lists(tinyOracle.index).flatten.foreach(id => seen(id) = true)
    assert(seen.forall(identity))
  }

  test("per-vertex influence estimates match exact influence") {
    val inf = tinyOracle.influenceOfSets((0 until tiny.n).map(Seq(_)))
    (0 until tiny.n).foreach { v =>
      val exact = ExactInfluence.influence(tiny, Seq(v))
      assert(math.abs(inf(v.toString) - exact) < 0.08, s"v=$v got=${inf(v.toString)} exact=$exact")
    }
  }

  test("influenceOfSets matches exact influence for seed sets") {
    val sets = Seq(Seq(0), Seq(0, 2), Seq(1, 3), Seq(0, 1, 2, 3))
    val got = tinyOracle.influenceOfSets(sets)
    sets.foreach { s =>
      val exact = ExactInfluence.influence(tiny, s)
      val est = got(s.sorted.mkString(","))
      assert(math.abs(est - exact) < 0.1, s"S=$s got=$est exact=$exact")
    }
  }

  test("influence of the full vertex set is exactly n") {
    val got = tinyOracle.influenceOfSets(Seq(Seq(0, 1, 2, 3)))
    assert(got("0,1,2,3") == 4.0)
  }

  test("generation is deterministic in the oracle seed") {
    val a = RRSets.lists(RRSetJob(spark, tiny, 5000, seed = 5).index)
    assert(RRSets.lists(RRSetJob(spark, tiny, 5000, seed = 5).index) == a)
    assert(RRSets.lists(RRSetJob(spark, tiny, 5000, seed = 6).index) != a)
  }

  test("coverage counting agrees with DuckDB (oracle check of the join)") {
    val small = RRSetJob(spark, tiny, 2000, seed = 6)
    val membership = RRSets.lists(small.index).zipWithIndex
      .flatMap { case (ids, v) => ids.map(id => Seq(id, v)) }
    val seedSets = Seq(Seq("a", 0), Seq("b", 1), Seq("b", 3))
    val inf = small.influenceOfSets(Seq(Seq(0), Seq(1, 3)))
    def round6(x: Double): Double = math.round(x * 1e6) / 1e6
    Oracle.assertEquivalent(
      Oracle.Rows(Seq("set_key", "influence"),
                  Seq(Seq("a", round6(inf("0"))), Seq("b", round6(inf("1,3"))))),
      s"""SELECT s.set_key,
         |       ROUND(COUNT(DISTINCT m.rr_id) * 4.0 / 2000, 6) AS influence
         |FROM (SELECT DISTINCT set_key FROM seed_sets) s
         |LEFT JOIN seed_sets ss ON ss.set_key = s.set_key
         |LEFT JOIN membership m ON m.vertex = ss.vertex
         |GROUP BY s.set_key""".stripMargin,
      "membership" -> Oracle.Rows(Seq("rr_id", "vertex"), membership),
      "seed_sets" -> Oracle.Rows(Seq("set_key", "vertex"), seedSets),
    )
  }

  test("per-vertex estimates on Karate under UC0.1 are plausible") {
    val g = ProbModel.assign(GraphGen.karate(), ProbModel.uc01)
    val oracle = RRSetJob(spark, g, 100000, seed = 7)
    val inf = oracle.influenceOfSets((0 until g.n).map(Seq(_)))
      .map { case (k, v) => k.toInt -> v }
    // Every vertex influences at least itself and at most the graph.
    inf.values.foreach(v => assert(v >= 0.9 && v <= 34.0))
    // Hubs (0 and 33 in 0-indexed ids) beat the median vertex.
    val median = inf.values.toSeq.sorted.apply(17)
    assert(inf(0) > median && inf(33) > median)
  }

  test("Table 4 ranks by RR-set count and reads values from influenceOfSets") {
    val g = ProbModel.assign(GraphGen.karate(), ProbModel.uc01)
    val oracle = RRSetJob(spark, g, 20000, seed = 8)
    val (offsets, _) = oracle.invertedIndex
    val top = repro.exp.Tables.table4Row(oracle, top = 5)
    val best = (0 until g.n).maxBy(v => (offsets(v + 1) - offsets(v), -v))
    assert(top.head == oracle.influenceOfSets(Seq(Seq(best)))(best.toString))
    assert(top == top.sorted.reverse)
  }

  test("sizes beyond Int range fail loudly, naming the value") {
    val e = intercept[IllegalArgumentException](RRSetJob(spark, tiny, 1L << 31, seed = 1))
    assert(e.getMessage.contains("theta=2147483648"))
    val r = intercept[IllegalArgumentException](
      repro.exp.Sweep.referenceSeedSet(tiny, 1, 1L << 31, seed = 1))
    assert(r.getMessage.contains("refTheta=2147483648"))
    val s = intercept[IllegalArgumentException](repro.exp.Sweep.run(spark, tiny, tinyOracle, 1,
      repro.exp.Sweep.Config(trials = 1, oneshotMax = 1, snapshotMax = 1, risMax = 1L << 31)))
    assert(s.getMessage.contains("RIS sample number=2147483648"))
  }

  test("oracle on a mismatched graph is rejected by Sweep") {
    val other = LocalGraph.fromWeightedEdges(3, Seq((0, 1, 0.5)))
    assertThrows[IllegalArgumentException] {
      repro.exp.Sweep.run(spark, other, tinyOracle, 1,
        repro.exp.Sweep.Config(trials = 1, oneshotMax = 1, snapshotMax = 1, risMax = 1))
    }
  }
}
