package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TokenizerSpec extends AnyFunSuite {

  test("tokenize lowercases and splits on non-alphanumerics") {
    assert(Tokenizer.tokenize("Hello, World!") == Seq("hello", "world"))
  }

  test("tokenize keeps digits") {
    assert(Tokenizer.tokenize("AZ-8 2019") == Seq("az", "8", "2019"))
  }

  test("tokenize of null is empty") {
    assert(Tokenizer.tokenize(null).isEmpty)
  }

  test("tokenize of empty string is empty") {
    assert(Tokenizer.tokenize("").isEmpty)
  }

  test("tokenize of punctuation-only is empty") {
    assert(Tokenizer.tokenize("--- !!").isEmpty)
  }

  test("isNumeric accepts ints, decimals and signs") {
    assert(Tokenizer.isNumeric("42"))
    assert(Tokenizer.isNumeric("-3.5"))
    assert(Tokenizer.isNumeric("+7"))
  }

  test("isNumeric rejects words, blanks and mixed strings") {
    assert(!Tokenizer.isNumeric("abc"))
    assert(!Tokenizer.isNumeric(""))
    assert(!Tokenizer.isNumeric(null))
    assert(!Tokenizer.isNumeric("12a"))
    assert(!Tokenizer.isNumeric("1.2.3"))
  }

  test("formatSignature compresses character-class runs") {
    assert(Tokenizer.formatSignature("AZ-8") == "asd")
    assert(Tokenizer.formatSignature("2019") == "d")
    assert(Tokenizer.formatSignature("ab12cd") == "ada")
    assert(Tokenizer.formatSignature("") == "")
  }

  test("formatSignature is identical for same-format values") {
    assert(Tokenizer.formatSignature("03/28/99") == Tokenizer.formatSignature("11/17/96"))
  }
}
