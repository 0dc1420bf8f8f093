package repro.spark

import repro.SparkSpec
import repro.graphs.{GraphGen, ProbModel}

class TrialRunnerSpec extends SparkSpec {

  private lazy val g = ProbModel.assign(GraphGen.karate(), ProbModel.uc01)

  test("produces one row per trial") {
    val rows = TrialRunner.runCollect(spark, g, Alg.SnapshotAlg, sampleNumber = 4,
                                      k = 2, trials = 12, baseSeed = 1)
    assert(rows.size == 12)
  }

  test("trial ids are 0 until trials, distinct") {
    val rows = TrialRunner.runCollect(spark, g, Alg.RisAlg, 8, 1, 10, baseSeed = 2)
    assert(rows.map(_.trial).sorted == (0 until 10))
  }

  test("seed sets have size k, distinct sorted members, matching key") {
    for (alg <- Alg.all) {
      val rows = TrialRunner.runCollect(spark, g, alg, 4, 3, 6, baseSeed = 3)
      rows.foreach { r =>
        assert(r.seed_set.size == 3, alg.name)
        assert(r.seed_set == r.seed_set.sorted)
        assert(r.seed_set.distinct.size == 3)
        assert(r.seed_key == r.seed_set.mkString(","))
        assert(r.alg == alg.name)
        assert(r.k == 3 && r.sample_number == 4)
      }
    }
  }

  test("identical base seed reproduces identical trials") {
    val a = TrialRunner.runCollect(spark, g, Alg.OneshotAlg, 4, 2, 8, baseSeed = 7)
    val b = TrialRunner.runCollect(spark, g, Alg.OneshotAlg, 4, 2, 8, baseSeed = 7)
    assert(a.sortBy(_.trial) == b.sortBy(_.trial))
  }

  test("different base seeds give different trial outcomes") {
    val a = TrialRunner.runCollect(spark, g, Alg.OneshotAlg, 2, 1, 20, baseSeed = 8)
    val b = TrialRunner.runCollect(spark, g, Alg.OneshotAlg, 2, 1, 20, baseSeed = 9)
    assert(a.map(_.seed_key) != b.map(_.seed_key))
  }

  test("low sample numbers produce diverse seed sets; high ones concentrate") {
    val low = TrialRunner.runCollect(spark, g, Alg.SnapshotAlg, 1, 1, 40, baseSeed = 10)
    val high = TrialRunner.runCollect(spark, g, Alg.SnapshotAlg, 512, 1, 40, baseSeed = 11)
    assert(low.map(_.seed_key).distinct.size > high.map(_.seed_key).distinct.size)
  }

  test("Oneshot rows report zero sample size; Snapshot and RIS positive") {
    val o = TrialRunner.runCollect(spark, g, Alg.OneshotAlg, 2, 1, 3, baseSeed = 12)
    assert(o.forall(_.sample_size == 0))
    val s = TrialRunner.runCollect(spark, g, Alg.SnapshotAlg, 2, 1, 3, baseSeed = 12)
    assert(s.forall(_.sample_size > 0))
    val r = TrialRunner.runCollect(spark, g, Alg.RisAlg, 2, 1, 3, baseSeed = 12)
    assert(r.forall(_.sample_size > 0))
  }

  test("traversal costs are positive for all algorithms") {
    for (alg <- Alg.all) {
      val rows = TrialRunner.runCollect(spark, g, alg, 2, 1, 3, baseSeed = 13)
      rows.foreach { r =>
        assert(r.vertex_cost > 0, alg.name)
        assert(r.edge_cost > 0, alg.name)
      }
    }
  }

  test("mixSeed decorrelates consecutive trials") {
    val seeds = (0L until 100L).map(TrialRunner.mixSeed(42L, _))
    assert(seeds.distinct.size == 100)
  }

  test("trials = 0 is rejected") {
    assertThrows[IllegalArgumentException] {
      TrialRunner.runCollect(spark, g, Alg.RisAlg, 1, 1, 0, baseSeed = 1)
    }
  }

  test("pack puts every item in one slice, longest first into the lightest") {
    val costs = Array(1.0, 5.0, 3.0, 3.0, 8.0, 2.0)
    val slices = TrialRunner.pack(costs, 3)
    assert(slices.flatten.sorted.toSeq == costs.indices)
    // 8 → 0, 5 → 1, 3 → 2, 3 → 2, 2 → 1, 1 → 2: loads 8, 7, 7.
    assert(slices.map(_.toSeq).toSeq == Seq(Seq(4), Seq(1, 5), Seq(2, 3, 0)))
    assert(TrialRunner.pack(costs, 1).head.toSeq == Seq(4, 1, 2, 3, 5, 0))
  }

  test("a trial's row does not depend on the order or packing of the job's trials") {
    val trials = for {
      alg <- Alg.all.toIndexedSeq
      s <- Seq(1, 8)
      t <- TrialRunner.pointTrials(alg, s, 2, pointSeed = 20L + s, trials = 6)
    } yield t
    def rowsOf(order: IndexedSeq[Trial]): Map[Trial, TrialRow] =
      order.zip(TrialRunner.runTrials(spark, g, order)).toMap
    val inOrder = rowsOf(trials)
    assert(inOrder.size == trials.size)
    trials.foreach(t => assert(inOrder(t) == TrialRunner.run(g, t), t))
    assert(rowsOf(trials.reverse) == inOrder)
    assert(rowsOf(new scala.util.Random(19).shuffle(trials)) == inOrder)
  }
}
