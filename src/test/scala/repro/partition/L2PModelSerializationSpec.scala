package repro.partition

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SetOps
import repro.embed.PTREmbedder
import repro.ml.Siamese

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import scala.util.Random

/** The L2P model must survive Java serialization — the distributed path
  * broadcasts it to Spark executors.
  */
class L2PModelSerializationSpec extends AnyFunSuite {

  private def roundTrip[A <: AnyRef](a: A): A = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(a)
    oos.close()
    new ObjectInputStream(new ByteArrayInputStream(bos.toByteArray))
      .readObject().asInstanceOf[A]
  }

  private def smallDb(seed: Long): Array[Array[Int]] = {
    val rnd = new Random(seed)
    Array.tabulate(300) { i =>
      val base = (i % 2) * 100
      SetOps.canon(Seq.fill(5)(base + rnd.nextInt(30)))
    }
  }

  test("L2PModel round-trips through Java serialization with identical assignments") {
    val db = smallDb(1)
    val res = L2P.partition(db, new PTREmbedder(256),
      L2P.Config(targetGroups = 4, initGroups = 2, minGroupSize = 20,
        siamese = Siamese.Config(pairs = 1000, epochs = 2)))
    val copy = roundTrip(res.model)
    for (s <- db) assert(copy.assign(s) == res.model.assign(s))
    assert(copy.nGroups == res.model.nGroups)
  }

  test("TGM round-trips through Java serialization (broadcast payload)") {
    val db = smallDb(2)
    val g = repro.core.Grouping.random(db.length, 5, 3)
    val tgm = repro.core.TGM.build(db, g)
    val copy = roundTrip(tgm)
    val q = db(7)
    for (grp <- 0 until 5) assert(copy.ub(q, grp) == tgm.ub(q, grp))
    for (q <- db) assert(copy.matchedAll(q).toSeq == tgm.matchedAll(q).toSeq)
    assert(copy.sizeBytes == tgm.sizeBytes)
  }

  test("serialized model size is small (the paper's L2P space argument)") {
    val db = smallDb(3)
    val res = L2P.partition(db, new PTREmbedder(256),
      L2P.Config(targetGroups = 8, initGroups = 2, minGroupSize = 20,
        siamese = Siamese.Config(pairs = 1000, epochs = 2)))
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(res.model)
    oos.close()
    // a handful of 300-parameter MLPs: must stay well under a megabyte
    assert(bos.size() < (1 << 20), s"model serialized to ${bos.size()} bytes")
  }
}
